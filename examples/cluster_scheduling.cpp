/**
 * @file
 * Cluster scheduling example: use SMiTe predictions to steer a
 * cluster scheduler toward 'safe' SMT co-locations.
 *
 * A small cluster runs Web-Search half-loaded; the scheduler decides
 * how many 470.lbm batch instances each server can absorb while
 * keeping average performance above a QoS target, then the example
 * reports what actually happened to QoS and utilization.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/cluster_scheduling [qos-target]
 */

#include <cstdio>
#include <cstdlib>

#include "core/smite.h"
#include "scheduler/cluster.h"

using namespace smite;

int
main(int argc, char **argv)
{
    const double target = argc > 1 ? std::atof(argv[1]) : 0.90;
    if (target <= 0.0 || target >= 1.0) {
        std::fprintf(stderr, "usage: %s [qos-target in (0,1)]\n",
                     argv[0]);
        return 1;
    }

    // Measure on the 6-core server platform.
    core::Lab lab(sim::MachineConfig::sandyBridgeEN(), sim::kRunLogFile);
    const auto mode = core::CoLocationMode::kSmt;
    const int threads = 6;

    const auto &web_search =
        workload::cloudsuite::byName("Web-Search");
    const auto &lbm = workload::spec2006::byName("470.lbm");

    // Train on a handful of SPEC benchmarks (a full deployment would
    // use the whole training suite; see bench_fig14).
    std::printf("training the prediction model...\n");
    using workload::spec2006::byName;
    const core::Predictor model = core::Predictor::train(
        core::PredictorKind::kSmite,
        core::trainingCorpus(
            lab,
            {byName("401.bzip2"), byName("429.mcf"), byName("433.milc"),
             byName("437.leslie3d"), byName("445.gobmk"),
             byName("453.povray"), byName("465.tonto"),
             byName("471.omnetpp"), byName("481.wrf")},
            mode)
            .samples);

    // Build the (Web-Search, lbm, k) QoS table.
    std::printf("measuring and predicting co-location QoS...\n\n");
    const double pair_prediction = model.predictDegradation(
        core::signatureOf(lab, web_search, mode, threads),
        core::signatureOf(lab, lbm, mode));
    scheduler::Pairing pairing;
    pairing.latencyApp = web_search.name;
    pairing.batchApp = lbm.name;
    std::printf("%-10s %14s %14s\n", "instances", "predicted QoS",
                "actual QoS");
    for (int k = 1; k <= threads; ++k) {
        scheduler::CoLocationOption option;
        option.predictedQos =
            1.0 - core::Lab::scaleToInstances(pair_prediction, k,
                                              threads);
        option.actualQos =
            1.0 - lab.multiInstanceDegradation(web_search, threads,
                                               lbm, k, mode);
        pairing.byInstances.push_back(option);
        std::printf("%10d %13.1f%% %13.1f%%\n", k,
                    100 * option.predictedQos,
                    100 * option.actualQos);
    }

    const scheduler::Cluster cluster({pairing}, {web_search.name},
                                     /*serversPerApp=*/200);
    const auto smite = cluster.runPredictedPolicy(target);
    const auto oracle = cluster.runOraclePolicy(target);

    std::printf("\nQoS target %.0f%% on %d servers:\n", 100 * target,
                cluster.servers());
    std::printf("  SMiTe : %.2f batch instances/server, utilization "
                "%.1f%% (+%.1f%%), violations %.2f%%\n",
                smite.meanInstances(), 100 * smite.utilization(),
                100 * smite.utilizationImprovement(),
                100 * smite.violationRate());
    std::printf("  Oracle: %.2f batch instances/server, utilization "
                "%.1f%% (+%.1f%%), violations %.2f%%\n",
                oracle.meanInstances(), 100 * oracle.utilization(),
                100 * oracle.utilizationImprovement(),
                100 * oracle.violationRate());
    return 0;
}
