/**
 * @file
 * Beyond the paper: latency-vs-load knees and load-aware admission.
 *
 * The paper's admission question — "can this co-location still meet
 * its tail-latency QoS?" — is answered at one design load. The
 * production-relevant quantity is the *knee*: the max offered QPS at
 * which the percentile target still holds under the co-location's
 * interference (cf. the slowdown-estimation and hardware-QoS
 * enforcement framing in PAPERS.md). Three parts:
 *
 *  1. a stepped open-loop rate sweep (mutated-style) over the DES,
 *     showing the hockey-stick latency curve of one co-location;
 *  2. a knee table: loadgen::findKnee per (service, interference
 *     level, co-location depth), searched in parallel with
 *     core::parallelFor — knees must be monotone nonincreasing in
 *     co-location depth and in per-instance degradation (the
 *     predicted-QoS ordering), and the harness exits nonzero if not;
 *  3. a load-aware online scheduling scenario: the Web-Search knee
 *     rows feed scheduler::LoadAwareConfig; best-effort fillers pack
 *     the idle contexts at the base load and are shed — never
 *     guaranteed instances — when keyed `des.arrival_burst` spikes
 *     double the offered load; guaranteed tiers are sized so the
 *     spike stays under their knee (zero load violations, asserted).
 *
 * Everything is keyed; stdout carries no timings, so runs are
 * byte-identical across repeats and SMITE_THREADS settings (the
 * tier-1 smoke pins this, clean and under a pinned `des.*` chaos
 * plan). The machine-readable knees and scenario aggregates go to
 * BENCH_load.json (schema `smite-run-report/1`; argv[1] overrides
 * the path), diffed against the committed baseline in tier-1 under
 * the gate declared in main(): the whole report exact, except the
 * pool.* metrics, which follow the pool's width.
 */

#include <iterator>
#include <string>
#include <vector>

#include "bench/common.h"
#include "fault/fault.h"
#include "loadgen/knee.h"
#include "scheduler/cluster.h"

using namespace smite;

namespace {

/** One latency service whose knees we map. */
struct Service {
    const char *name;
    double lambda;    ///< design arrival rate (QPS)
    double mu;        ///< solo service rate (QPS)
    double targetP95; ///< tail-latency target (s)
};

/** One interference level: per-instance throughput degradation. */
struct Level {
    const char *name;
    double degPerInstance;
};

constexpr Service kServices[] = {
    {"Web-Search", 800.0, 2000.0, 0.006},
    {"Data-Caching", 8000.0, 20000.0, 0.0006},
};
constexpr Level kLevels[] = {
    {"light", 0.04},
    {"medium", 0.08},
    {"heavy", 0.13},
};
constexpr int kMaxDepth = 6;

/** Shared request-window shape of every probe and sweep step. */
loadgen::SweepConfig
probeTemplate(const Service &svc)
{
    loadgen::SweepConfig cfg;
    cfg.arrival.seed = 17;
    cfg.servers.seed = 17;
    cfg.preRequests = 2000;
    cfg.measureRequests = 20000;
    cfg.postRequests = 500;
    cfg.percentile = 0.95;
    cfg.servers.serviceRates = {svc.mu};
    return cfg;
}

/** Knee of @p svc at @p depth co-located instances of @p lvl. */
loadgen::KneeResult
kneeOf(const Service &svc, const Level &lvl, int depth)
{
    const double deg = lvl.degPerInstance * depth;
    loadgen::KneeConfig cfg;
    cfg.probe = probeTemplate(svc);
    cfg.probe.servers.serviceRates = {(1.0 - deg) * svc.mu};
    cfg.targetLatency = svc.targetP95;
    cfg.qpsLo = 0.05 * svc.mu;
    cfg.tolerance = 0.002 * svc.mu;
    // Chaos runs arm `des.drop`; keyed drops are identical at every
    // probed rate, so they do not break the search's monotonicity —
    // the latency target alone decides.
    cfg.failOnDrop = false;
    return loadgen::findKnee(cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_load.json";
    bench::ReportScope obs_scope("bench_latency_vs_load");
    bench::banner("Latency vs load (beyond the paper)",
                  "open-loop knee finding and load-aware admission");
    obs::RunReport report("bench_latency_vs_load");
    report.addGate("metrics.counters.pool.*", obs::json::Value("ignore"));
    report.addGate("metrics.gauges.pool.*", obs::json::Value("ignore"));
    report.addGate("metrics.histograms.pool.*", obs::json::Value("ignore"));
    report.addGate("*", obs::json::Value(0));

    // --- 1. Stepped sweep: the latency-vs-load curve ---------------
    // Web-Search under 10% degradation, two DES server instances,
    // least-loaded balancing — the hockey stick the knee search
    // bisects. Offered load is per the whole pool.
    {
        const Service &svc = kServices[0];
        loadgen::SweepConfig sweep = probeTemplate(svc);
        sweep.servers.serviceRates = {0.9 * svc.mu, 0.9 * svc.mu};
        sweep.startQps = 400.0;
        sweep.stepSize = 400.0;
        sweep.stepStop = 3200.0;
        const loadgen::SweepResult result = loadgen::runSweep(sweep);

        std::printf("\nstepped sweep: %s, deg 10%%, 2 servers "
                    "(p95 target %.1f ms)\n",
                    svc.name, 1e3 * svc.targetP95);
        std::printf("%10s %12s %12s %10s %8s\n", "offered", "p95",
                    "mean", "achieved", "dropped");
        for (const auto &s : result.steps) {
            std::printf("%9.0f %11.3fms %11.3fms %9.0f %8llu\n",
                        s.offeredQps, 1e3 * s.percentileValue,
                        1e3 * s.meanResponse, s.achievedQps,
                        static_cast<unsigned long long>(s.dropped));
        }
    }

    // --- 2. Knee table ---------------------------------------------
    // One (service, level) combo per parallelFor index; results are
    // assembled by index, so the table (and stdout) is byte-identical
    // across SMITE_THREADS settings.
    constexpr std::size_t kServiceCount = std::size(kServices);
    constexpr std::size_t kLevelCount = std::size(kLevels);
    std::vector<std::vector<double>> knees(
        kServiceCount * kLevelCount,
        std::vector<double>(kMaxDepth + 1, 0.0));
    core::parallelFor(knees.size(), [&](std::size_t i) {
        const Service &svc = kServices[i / kLevelCount];
        const Level &lvl = kLevels[i % kLevelCount];
        for (int d = 0; d <= kMaxDepth; ++d)
            knees[i][d] = kneeOf(svc, lvl, d).kneeQps;
    });

    int monotonicity_failures = 0;
    std::printf("\nknee QPS by co-location depth (p95 target held)\n");
    std::printf("%-14s %-8s %-7s", "service", "level", "deg/inst");
    for (int d = 0; d <= kMaxDepth; ++d)
        std::printf(" %7s%d", "d", d);
    std::printf("\n");
    for (std::size_t i = 0; i < knees.size(); ++i) {
        const Service &svc = kServices[i / kLevelCount];
        const Level &lvl = kLevels[i % kLevelCount];
        std::printf("%-14s %-8s %7.2f", svc.name, lvl.name,
                    lvl.degPerInstance);
        for (int d = 0; d <= kMaxDepth; ++d) {
            std::printf(" %8.0f", knees[i][d]);
            report.addResult("knee." + std::string(svc.name) + "." +
                                 lvl.name + ".d" + std::to_string(d),
                             obs::json::Value(knees[i][d]));
            // Deeper co-location (more predicted degradation) can
            // never raise the knee.
            if (d > 0 && knees[i][d] > knees[i][d - 1]) {
                ++monotonicity_failures;
                std::printf(" <NON-MONOTONE depth>");
            }
            // Same depth, heavier per-instance degradation: ditto.
            if (i % kLevelCount > 0 && d > 0 &&
                knees[i][d] > knees[i - 1][d]) {
                ++monotonicity_failures;
                std::printf(" <NON-MONOTONE level>");
            }
        }
        std::printf("\n");
    }
    std::printf("knee monotonicity (in depth and in degradation): "
                "%s\n",
                monotonicity_failures == 0 ? "ok" : "VIOLATED");

    // --- 3. Load-aware online scheduling under load spikes ---------
    // A Web-Search cluster whose servers pair with light/medium/heavy
    // batch apps. The measured knee rows above become the scheduler's
    // admission table; `des.arrival_burst` doubles the offered load
    // on keyed (epoch, server) picks.
    const double kQosTarget = 0.90;
    const double kBaseQps = 400.0;
    const int kEpochs = 12;

    std::vector<scheduler::Pairing> pairings;
    std::vector<std::vector<double>> knee_table;
    for (std::size_t l = 0; l < kLevelCount; ++l) {
        scheduler::Pairing p;
        p.latencyApp = kServices[0].name;
        p.batchApp = kLevels[l].name;
        for (int k = 1; k <= kMaxDepth; ++k) {
            const double qos =
                1.0 - kLevels[l].degPerInstance * static_cast<double>(k);
            p.byInstances.push_back(
                scheduler::CoLocationOption{qos, qos});
        }
        pairings.push_back(std::move(p));
        knee_table.push_back(knees[l]); // Web-Search rows
    }
    const scheduler::Cluster cluster(pairings, {kServices[0].name},
                                     300);

    fault::FaultPlan &faults = fault::FaultPlan::global();
    if (!faults.armed("des.arrival_burst")) {
        faults.arm("des.arrival_burst",
                   fault::SiteSpec{.probability = 0.10,
                                   .seed = 303,
                                   .sigma = 0.5});
    }
    std::printf("\nload-aware scheduling: %d servers, base %.0f QPS, "
                "2x spikes via des.arrival_burst (p=%.2f seed=%llu), "
                "%d epochs, QoS target %.2f\n",
                cluster.servers(), kBaseQps,
                faults.spec("des.arrival_burst").probability,
                static_cast<unsigned long long>(
                    faults.spec("des.arrival_burst").seed),
                kEpochs, kQosTarget);

    scheduler::OnlineConfig on_cfg;
    on_cfg.epochs = kEpochs;
    on_cfg.loadAware.enabled = true;
    on_cfg.loadAware.baseQps = kBaseQps;
    on_cfg.loadAware.spikeFactor = 2.0;
    on_cfg.loadAware.kneeByPairing = knee_table;
    const scheduler::OnlineResult run =
        cluster.runOnline(kQosTarget, on_cfg);

    scheduler::OnlineConfig off_cfg;
    off_cfg.epochs = kEpochs;
    const scheduler::OnlineResult base_run =
        cluster.runOnline(kQosTarget, off_cfg);

    std::printf("%6s %8s %8s %10s %10s %10s\n", "epoch", "spikes",
                "shed", "fillers", "guaranteed", "loadviol");
    int spikes_total = 0, shed_total = 0, load_violations = 0;
    for (const auto &e : run.timeline) {
        std::printf("%6d %8d %8d %10.0f %10.0f %10d\n", e.epoch,
                    e.loadSpikes, e.fillersShed, e.fillerInstances,
                    e.totalInstances, e.loadViolations);
        spikes_total += e.loadSpikes;
        shed_total += e.fillersShed;
        load_violations += e.loadViolations;
    }
    const auto &last = run.timeline.back();
    std::printf("\nfinal: utilization %.4f (load-aware, incl. "
                "fillers) vs %.4f (baseline), guaranteed violation "
                "rate %.4f\n",
                last.utilization,
                base_run.timeline.back().utilization,
                run.final.violationRate());

    const bool sheds_under_spikes = spikes_total > 0 && shed_total > 0;
    std::printf("spikes %d, fillers shed %d, guaranteed-tier load "
                "violations %d -> %s\n",
                spikes_total, shed_total, load_violations,
                sheds_under_spikes && load_violations == 0
                    ? "graceful degradation: ok"
                    : "FAILED");

    report.addResult("scenario.load_spikes",
                     obs::json::Value(spikes_total));
    report.addResult("scenario.fillers_shed",
                     obs::json::Value(shed_total));
    report.addResult("scenario.load_violations",
                     obs::json::Value(load_violations));
    report.addResult("scenario.final_filler_instances",
                     obs::json::Value(last.fillerInstances));
    report.addResult("scenario.final_guaranteed_instances",
                     obs::json::Value(last.totalInstances));
    report.addResult("scenario.final_utilization",
                     obs::json::Value(last.utilization));
    report.addResult(
        "scenario.baseline_utilization",
        obs::json::Value(base_run.timeline.back().utilization));
    report.addResult("scenario.guaranteed_violation_rate",
                     obs::json::Value(run.final.violationRate()));

    if (!report.writeTo(out_path))
        return 1;
    std::printf("report written to %s\n", out_path.c_str());

    bench::paperReference(
        "not in the paper; motivated by the max-load-under-QoS "
        "framing of shared-resource management work (PAPERS.md)");
    return monotonicity_failures == 0 && sheds_under_spikes &&
                   load_violations == 0
               ? 0
               : 1;
}
