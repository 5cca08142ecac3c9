/**
 * @file
 * Custom-workload example: describe your own application as a
 * WorkloadProfile, characterize it with the Rulers, and predict how
 * it will co-exist with the bundled workloads — the workflow a WSC
 * operator would use for a new service arriving at the scheduler
 * (paper Section III-D).
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/custom_workload
 */

#include <cstdio>

#include "core/smite.h"

using namespace smite;

int
main()
{
    // Describe the new application: a vectorized analytics kernel —
    // FP-multiply heavy, streaming over a large column store, decent
    // branch behaviour.
    workload::WorkloadProfile analytics;
    analytics.name = "column-scan";
    analytics.suite = workload::Suite::kMicro;
    analytics.mixOf(sim::UopType::kFpMul) = 0.24;
    analytics.mixOf(sim::UopType::kFpAdd) = 0.18;
    analytics.mixOf(sim::UopType::kIntAdd) = 0.14;
    analytics.mixOf(sim::UopType::kBranch) = 0.06;
    analytics.mixOf(sim::UopType::kLoad) = 0.28;
    analytics.mixOf(sim::UopType::kStore) = 0.06;
    analytics.branchMispredictRate = 0.01;
    analytics.dataFootprint = 512ull << 20;  // 512 MiB column store
    analytics.streamFraction = 0.70;         // sequential scans
    analytics.hotBytes = 2 << 20;            // dictionary / metadata
    analytics.hotProb = 0.5;
    analytics.stackBytes = 8 * 1024;
    analytics.stackProb = 0.30;
    analytics.codeFootprint = 128 * 1024;
    analytics.loopBytes = 1024;
    analytics.codeDwellUops = 20000;
    analytics.depProb = 0.5;
    analytics.loadDepProb = 0.05;
    analytics.depMeanDist = 5.0;

    core::Lab lab(sim::MachineConfig::ivyBridge(), sim::kRunLogFile);
    const auto mode = core::CoLocationMode::kSmt;

    std::printf("characterizing %s with the Ruler suite...\n\n",
                analytics.name.c_str());
    const auto &c = lab.characterization(analytics, mode);
    std::printf("%-14s %12s %16s\n", "dimension", "sensitivity",
                "contentiousness");
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        std::printf("%-14s %11.1f%% %15.1f%%\n",
                    rulers::dimensionName(
                        rulers::kAllDimensions[d]).data(),
                    100 * c.sensitivity[d],
                    100 * c.contentiousness[d]);
    }

    // One characterization is enough to predict against anything the
    // model knows about — no cross-product profiling (Section III-D).
    std::printf("\ntraining the model once on the SPEC training "
                "split...\n");
    const core::Predictor model = core::Predictor::train(
        core::PredictorKind::kSmite,
        core::trainingCorpus(lab, workload::spec2006::evenNumbered(), mode)
            .samples);

    std::printf("\npredicted SMT co-location outcomes:\n");
    std::printf("%-16s %18s %18s\n", "co-runner",
                "column-scan loses", "co-runner loses");
    const core::WorkloadSignature us =
        core::signatureOf(lab, analytics, mode);
    for (const char *name : {"429.mcf", "444.namd", "453.povray",
                             "462.libquantum", "471.omnetpp"}) {
        const core::WorkloadSignature other = core::signatureOf(
            lab, workload::spec2006::byName(name), mode);
        const double we_lose = model.predictDegradation(us, other);
        const double they_lose = model.predictDegradation(other, us);
        std::printf("%-16s %17.1f%% %17.1f%%\n", name, 100 * we_lose,
                    100 * they_lose);
    }

    std::printf("\nA scheduler would place column-scan with the "
                "co-runner whose mutual\npredicted degradation stays "
                "within its QoS budget.\n");
    return 0;
}
