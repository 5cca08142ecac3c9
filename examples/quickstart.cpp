/**
 * @file
 * Quickstart: the whole SMiTe workflow in one page.
 *
 *  1. Build a machine model (Table I Ivy Bridge).
 *  2. Characterize two applications with the Ruler suite.
 *  3. Train the Equation 3 regression on a training set.
 *  4. Predict the SMT co-location degradation of a held-out pair
 *     and compare against the measured truth.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/smite.h"

using namespace smite;

int
main()
{
    // 1. A machine to measure on.
    // Share simulator runs with the bench harnesses through their run
    // log (first run simulates, reruns are instant).
    core::Lab lab(sim::MachineConfig::ivyBridge(), sim::kRunLogFile);
    std::printf("machine: %s (%d cores x %d contexts)\n\n",
                lab.machine().config().name.c_str(),
                lab.machine().config().numCores,
                lab.machine().config().contextsPerCore);

    // 2. Characterize two applications: sensitivity (how much each
    //    suffers) and contentiousness (how much each inflicts) per
    //    sharing dimension, measured by co-running with Rulers.
    const auto mode = core::CoLocationMode::kSmt;
    const auto &victim = workload::spec2006::byName("465.tonto");
    const auto &aggressor = workload::spec2006::byName("433.milc");

    for (const auto *app : {&victim, &aggressor}) {
        const core::Characterization &c =
            lab.characterization(*app, mode);
        std::printf("%-14s", app->name.c_str());
        for (int d = 0; d < rulers::kNumDimensions; ++d) {
            std::printf(" %s S%.0f%%/C%.0f%%",
                        rulers::dimensionName(
                            rulers::kAllDimensions[d]).data(),
                        100 * c.sensitivity[d],
                        100 * c.contentiousness[d]);
        }
        std::printf("\n");
    }

    // 3. Train the prediction model on the even-numbered SPEC
    //    benchmarks (the paper's training split).
    std::printf("\ntraining Equation 3 on the even-numbered SPEC "
                "benchmarks...\n");
    const core::Predictor model = core::Predictor::train(
        core::PredictorKind::kSmite,
        core::trainingCorpus(lab, workload::spec2006::evenNumbered(), mode)
            .samples);

    // 4. Predict a held-out co-location and compare with the truth.
    const double predicted =
        model.predictDegradation(core::signatureOf(lab, victim, mode),
                                 core::signatureOf(lab, aggressor, mode));
    const double measured =
        lab.pairDegradation(victim, aggressor, mode);
    std::printf("\n%s co-located with %s (SMT):\n",
                victim.name.c_str(), aggressor.name.c_str());
    std::printf("  predicted degradation %.1f%%\n", 100 * predicted);
    std::printf("  measured degradation  %.1f%%\n", 100 * measured);
    std::printf("  absolute error        %.1f%%\n",
                100 * std::abs(predicted - measured));
    return 0;
}
