/**
 * @file
 * Figure 18: 3-year total cost of ownership improvement from
 * SMiTe-steered co-location, normalized to the baseline that
 * disallows SMT co-location.
 *
 * Baseline fleet: half the machines run latency-sensitive services
 * half-loaded (6/12 contexts), half run batch work (6 jobs each,
 * also without SMT co-location). SMiTe absorbs batch instances onto
 * the latency machines' idle contexts, retiring batch servers.
 */

#include "bench/scaleout.h"
#include "tco/tco.h"

using namespace smite;

namespace {

/** TCO saving from absorbing a mean of @p mean_instances per server. */
double
tcoSaving(const tco::TcoModel &model, double mean_instances)
{
    const double n = 4000.0;  // latency servers (half the fleet)
    const double batch_jobs_per_server = bench::kLatencyThreads;

    // Baseline: n latency servers at 6/12 plus n batch servers fully
    // committed (6 jobs on 6 cores).
    const double baseline = model.horizonCost(n, 0.5) +
                            model.horizonCost(n, 1.0);

    // With SMiTe: each latency server absorbs mean_instances batch
    // jobs onto idle contexts; the equivalent batch servers retire.
    const double retired =
        n * mean_instances / batch_jobs_per_server;
    const double latency_util =
        (bench::kLatencyThreads + mean_instances) /
        scheduler::kContextsPerServer;
    const double with_smite =
        model.horizonCost(n, latency_util) +
        model.horizonCost(n - retired, 1.0);

    return 1.0 - with_smite / baseline;
}

} // namespace

int
main()
{
    bench::ReportScope obs_scope("bench_fig18_tco");
    bench::banner("Figure 18",
                  "3-year TCO improvement vs disallowing SMT "
                  "co-location");

    core::Lab lab = bench::makeLab(sim::MachineConfig::sandyBridgeEN());
    const auto mode = core::CoLocationMode::kSmt;
    const core::Predictor model = core::Predictor::train(
        core::PredictorKind::kSmite,
        core::trainingCorpus(lab, workload::spec2006::oddNumbered(), mode)
            .samples);
    const auto batch = workload::spec2006::evenNumbered();

    const tco::TcoModel tco_model;  // Google-fleet PUE 1.12 default
    std::printf("TCO parameters: server $%.0f/%0.fy, DC $%.0f/W/%.0fy,"
                " PUE %.2f, $%.3f/kWh, horizon %.0fy\n",
                tco_model.params().serverCapex,
                tco_model.params().serverAmortYears,
                tco_model.params().datacenterCapexPerWatt,
                tco_model.params().datacenterAmortYears,
                tco_model.params().pue,
                tco_model.params().electricityPerKwh,
                tco_model.params().horizonYears);

    // Average-performance QoS (all four CloudSuite applications).
    {
        const auto pairings = bench::buildAvgPerfPairings(
            lab, model, workload::cloudsuite::all(), batch);
        const scheduler::Cluster cluster(
            pairings, bench::namesOf(workload::cloudsuite::all()),
            bench::kServersPerApp);
        std::printf("\naverage-performance QoS:\n");
        std::printf("%-10s %12s %12s\n", "QoS target", "mean inst",
                    "TCO saving");
        for (double target : {0.95, 0.90, 0.85}) {
            const auto result = cluster.runPredictedPolicy(target);
            std::printf("%9.0f%% %12.2f %11.2f%%\n", 100 * target,
                        result.meanInstances(),
                        100 * tcoSaving(tco_model,
                                        result.meanInstances()));
        }
        std::printf("paper: up to 21.05%% saving\n");
    }

    // Tail-latency QoS (Web-Search + Data-Caching).
    {
        std::vector<workload::WorkloadProfile> latency = {
            workload::cloudsuite::byName("Web-Search"),
            workload::cloudsuite::byName("Data-Caching")};
        const auto pairings =
            bench::buildTailPairings(lab, model, latency, batch);
        const scheduler::Cluster cluster(pairings,
                                         bench::namesOf(latency),
                                         2 * bench::kServersPerApp);
        std::printf("\n90th-percentile latency QoS:\n");
        std::printf("%-10s %12s %12s\n", "QoS target", "mean inst",
                    "TCO saving");
        for (double target : {0.95, 0.90, 0.85}) {
            const auto result = cluster.runPredictedPolicy(target);
            std::printf("%9.0f%% %12.2f %11.2f%%\n", 100 * target,
                        result.meanInstances(),
                        100 * tcoSaving(tco_model,
                                        result.meanInstances()));
        }
        std::printf("paper: up to 10.70%% saving\n");
    }

    bench::paperReference(
        "SMiTe saves up to 21.05% TCO under average-performance QoS "
        "and up to 10.70% under 90th-percentile latency QoS");
    return 0;
}
