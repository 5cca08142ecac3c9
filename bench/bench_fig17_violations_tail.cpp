/**
 * @file
 * Figure 17: QoS violations under tail-latency QoS, SMiTe vs the
 * Random policy at matched utilization. Violation magnitudes use
 * latency-overshoot normalization, which exceeds 100% for deep
 * violations (the queueing effect amplifies small degradation
 * mistakes into large latency overshoots).
 */

#include "bench/scaleout.h"

using namespace smite;

int
main()
{
    bench::ReportScope obs_scope("bench_fig17_violations_tail");
    bench::banner("Figure 17",
                  "QoS violations: SMiTe vs Random at matched "
                  "utilization (90th-percentile latency QoS)");

    core::Lab lab = bench::makeLab(sim::MachineConfig::sandyBridgeEN());
    const auto mode = core::CoLocationMode::kSmt;
    const core::Predictor model = core::Predictor::train(
        core::PredictorKind::kSmite,
        core::trainingCorpus(lab, workload::spec2006::oddNumbered(), mode)
            .samples);

    std::vector<workload::WorkloadProfile> latency = {
        workload::cloudsuite::byName("Web-Search"),
        workload::cloudsuite::byName("Data-Caching")};
    const auto pairings = bench::buildTailPairings(
        lab, model, latency, workload::spec2006::evenNumbered());
    scheduler::Cluster cluster(pairings, bench::namesOf(latency),
                               2 * bench::kServersPerApp);
    cluster.useLatencyOvershootNorm(true);

    std::printf("%-10s %14s %14s %14s %14s\n", "QoS target",
                "SMiTe viol%", "Random viol%", "SMiTe max mag",
                "Random max mag");
    for (double target : {0.95, 0.90, 0.85}) {
        const auto smite = cluster.runPredictedPolicy(target);
        const auto random =
            cluster.runRandomPolicy(target, smite.totalInstances);
        std::printf("%9.0f%% %13.2f%% %13.2f%% %13.2f%% %13.2f%%\n",
                    100 * target, 100 * smite.violationRate(),
                    100 * random.violationRate(),
                    100 * smite.maxViolation,
                    100 * random.maxViolation);
    }

    bench::paperReference(
        "Random suffers up to 110% violations (latency overshoot); "
        "the most serious SMiTe violation is 0.96%");
    return 0;
}
