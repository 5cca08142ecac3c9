/**
 * @file
 * Figure 14: cluster utilization improvement when SMT co-location is
 * allowed under average-performance QoS targets of 95/90/85%, for
 * the SMiTe-steered scheduler vs the Oracle.
 *
 * Cluster: 4,000 servers, 1,000 per CloudSuite application, each
 * half-loaded (6 of 12 contexts). Batch candidates come from the
 * even-numbered SPEC benchmarks (the models are trained on the
 * odd-numbered ones).
 */

#include "bench/scaleout.h"

using namespace smite;

int
main()
{
    bench::ReportScope obs_scope("bench_fig14_utilization_avgperf");
    bench::banner("Figure 14",
                  "Utilization improvement under average-performance "
                  "QoS targets (SMiTe vs Oracle)");

    core::Lab lab = bench::makeLab(sim::MachineConfig::sandyBridgeEN());
    const auto mode = core::CoLocationMode::kSmt;
    const auto train = workload::spec2006::oddNumbered();
    const auto batch = workload::spec2006::evenNumbered();
    const auto &latency = workload::cloudsuite::all();

    const core::Predictor model = core::Predictor::train(
        core::PredictorKind::kSmite,
        core::trainingCorpus(lab, train, mode).samples);
    const auto pairings =
        bench::buildAvgPerfPairings(lab, model, latency, batch);
    const scheduler::Cluster cluster(pairings, bench::namesOf(latency),
                                     bench::kServersPerApp);

    const double paper_smite[] = {9.24, 25.90, 42.97};
    const double paper_oracle[] = {9.82, 26.78, 43.75};
    const double targets[] = {0.95, 0.90, 0.85};

    std::printf("%-10s %16s %16s %14s %14s\n", "QoS target",
                "SMiTe util gain", "Oracle util gain", "paper SMiTe",
                "paper Oracle");
    for (int i = 0; i < 3; ++i) {
        const auto smite = cluster.runPredictedPolicy(targets[i]);
        const auto oracle = cluster.runOraclePolicy(targets[i]);
        std::printf("%9.0f%% %15.2f%% %15.2f%% %13.2f%% %13.2f%%\n",
                    100 * targets[i],
                    100 * smite.utilizationImprovement(),
                    100 * oracle.utilizationImprovement(),
                    paper_smite[i], paper_oracle[i]);
    }

    bench::paperReference(
        "SMiTe improves utilization by 9.24/25.90/42.97% at "
        "95/90/85% QoS targets, close to Oracle's 9.82/26.78/43.75%");
    return 0;
}
