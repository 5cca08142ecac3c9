/**
 * @file
 * Figure 16: utilization improvement when QoS is defined as the 90th
 * percentile latency (Web-Search and Data-Caching, 2,000 servers
 * each). Tail latency grows super-linearly with degradation, so
 * these targets admit far fewer co-locations than Figure 14's.
 */

#include "bench/scaleout.h"

using namespace smite;

int
main()
{
    bench::ReportScope obs_scope("bench_fig16_utilization_tail");
    bench::banner("Figure 16",
                  "Utilization improvement under 90th-percentile "
                  "latency QoS targets (SMiTe vs Oracle)");

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
    // 4,000 machines split between the two applications.
    const scheduler::Cluster cluster(pairings, bench::namesOf(latency),
                                     2 * bench::kServersPerApp);

    const double paper_smite[] = {0.00, 10.72, 22.03};
    const double paper_oracle[] = {0.59, 12.50, 24.99};
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
        "SMiTe achieves 0/10.72/22.03% utilization gain at "
        "95/90/85% tail-QoS targets vs Oracle's 0.59/12.50/24.99%; "
        "tail targets admit far fewer co-locations than "
        "average-performance targets");
    return 0;
}
