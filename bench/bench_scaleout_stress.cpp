/**
 * @file
 * Warehouse-scale scheduler stress benchmark: the ShardedCluster
 * streaming engine (src/scheduler/shard.h) at 4k / 32k / 128k
 * servers under continuous churn, on a heterogeneous Table 1 fleet
 * (Sandy Bridge-EN + Ivy Bridge classes) with mixed QoS tiers.
 *
 * Two engines run the *identical* keyed churn trace at every scale,
 * both on one thread:
 *
 * - the full-scan reference (shards=1): every epoch scans every
 *   server, the O(cluster) cost the paper-scale Cluster pays;
 * - the calendar engine (any other shard count): the event calendar
 *   touches only the servers with due churn, O(churn) per epoch.
 *
 * Their results must be byte-identical (digest-checked here, and a
 * hard failure if not); the throughput gap between them is therefore
 * honest, measured work avoidance. Like bench_sim_micro this guards
 * *performance*, not figures: it writes `BENCH_sched.json`
 * (schema `smite-run-report/1`), and the committed copy at the
 * repository root is the baseline `scripts/tier1.sh` re-checks with
 * `report_diff` under the gate declared in main(): the
 * `*_epochs_per_sec` throughputs within a relative 0.6, every other
 * result exact. The `*_lockstep_*` and `*_sharded_*`
 * result keys keep their names so fresh reports diff against older
 * baselines; they time the reference and the calendar engine.
 *
 *   bench_scaleout_stress [output.json]   (default: BENCH_sched.json)
 *   bench_scaleout_stress --determinism
 *
 * --determinism runs the 4k fleet on both engines, prints the epoch
 * timeline, digests and conservation identities, and exits non-zero
 * unless the two runs are identical — no timings in the output, so
 * tier-1 can byte-compare stdout across SMITE_THREADS settings.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "obs/report.h"
#include "scheduler/keyed.h"
#include "scheduler/shard.h"
#include "sim/config.h"

using namespace smite;
using scheduler::ChurnConfig;
using scheduler::MachineClass;
using scheduler::ShardedCluster;
using scheduler::StreamResult;
using scheduler::TierPolicy;

namespace {

/** Shard arguments that select each engine (shard.h). */
constexpr int kReference = 1;
constexpr int kCalendar = 2;
/** Wall-clock repeats per timing; the median is reported. */
constexpr int kRepeats = 5;
/** Keyed seed of the synthetic pairing tables. */
constexpr std::uint64_t kTableSeed = 2014;

constexpr TierPolicy kTiers{0.90, 0.60};

const char *const kLatencyApps[] = {"web-search", "media-streaming",
                                    "data-serving", "graph-analytics"};
const char *const kBatchApps[] = {"456.hmmer", "470.lbm", "403.gcc",
                                  "433.milc", "450.soplex",
                                  "464.h264ref"};

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

template <typename Fn>
double
medianSeconds(Fn &&fn)
{
    fn();  // warmup
    std::vector<double> times;
    times.reserve(kRepeats);
    for (int r = 0; r < kRepeats; ++r) {
        const double t0 = wallSeconds();
        fn();
        times.push_back(wallSeconds() - t0);
    }
    std::sort(times.begin(), times.end());
    return times[kRepeats / 2];
}

/**
 * One machine class of the fleet, parameterized by a Table 1 config:
 * the latency app owns one context per core (the paper's half-loaded
 * baseline), batch capacity is the sibling contexts, and the
 * synthetic QoS tables scale contention with the machine's L3 — the
 * same batch job degrades its victim more on the smaller-cache part,
 * which is exactly what makes "which machine" a placement decision.
 */
MachineClass
classFrom(const sim::MachineConfig &config, int class_index)
{
    MachineClass mc;
    mc.name = config.microarchitecture;
    mc.latencyThreads = config.numCores;
    mc.contextsPerServer = config.totalContexts();

    // Cache-pressure factor relative to an 8MB L3.
    const double pressure =
        std::sqrt(8.0 * 1024 * 1024 /
                  static_cast<double>(config.l3.sizeBytes));
    const int cap = mc.maxInstances();
    const int n_lat = static_cast<int>(std::size(kLatencyApps));
    const int n_batch = static_cast<int>(std::size(kBatchApps));
    for (int l = 0; l < n_lat; ++l) {
        for (int b = 0; b < n_batch; ++b) {
            scheduler::Pairing p;
            p.latencyApp = kLatencyApps[l];
            p.batchApp = kBatchApps[b];
            const std::uint64_t h = scheduler::keyed::draw(
                kTableSeed, static_cast<std::uint64_t>(class_index),
                static_cast<std::uint64_t>(l),
                static_cast<std::uint64_t>(b));
            // Per-instance QoS slope in [0.02, 0.10), scaled by the
            // machine's cache pressure; the model's slope misses by
            // up to +/-25%, so some placements violate and some
            // capacity is left on the table — both tiers see
            // realistic prediction error.
            const double slope =
                (0.02 + 0.08 * scheduler::keyed::toUnit(h)) * pressure;
            const double err =
                0.50 * scheduler::keyed::toUnit(
                           scheduler::keyed::mix64(h)) -
                0.25;
            for (int k = 1; k <= cap; ++k) {
                scheduler::CoLocationOption option;
                option.actualQos = std::max(0.0, 1.0 - slope * k);
                option.predictedQos =
                    std::max(0.0, 1.0 - slope * (1.0 + err) * k);
                p.byInstances.push_back(option);
            }
            mc.pairings.push_back(std::move(p));
        }
    }
    return mc;
}

std::vector<MachineClass>
fleetClasses()
{
    return {classFrom(sim::MachineConfig::sandyBridgeEN(), 0),
            classFrom(sim::MachineConfig::ivyBridge(), 1)};
}

/** 60/40 Sandy Bridge-EN / Ivy Bridge split of @p servers. */
std::vector<std::int64_t>
fleetMix(std::int64_t servers)
{
    const std::int64_t snb = servers * 3 / 5;
    return {snb, servers - snb};
}

ChurnConfig
churnFor(std::int64_t servers)
{
    ChurnConfig churn;
    churn.arrivalsPerEpoch = static_cast<int>(servers / 128);
    churn.departProb = 0.01;
    churn.failProb = 0.002;
    churn.recoverProb = 0.25;
    churn.probesPerJob = 4;
    churn.seed = 1234;
    return churn;
}

bool
sameResult(const StreamResult &a, const StreamResult &b)
{
    if (a.digest != b.digest || a.timeline.size() != b.timeline.size())
        return false;
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        const auto &x = a.timeline[i];
        const auto &y = b.timeline[i];
        if (x.failures != y.failures || x.recoveries != y.recoveries ||
            x.departures != y.departures || x.placed != y.placed ||
            x.rejected != y.rejected || x.lost != y.lost ||
            x.replacements != y.replacements ||
            x.fillerPlaced != y.fillerPlaced ||
            x.fillerEvicted != y.fillerEvicted ||
            x.events != y.events ||
            x.guaranteedInstances != y.guaranteedInstances ||
            x.bestEffortInstances != y.bestEffortInstances ||
            x.liveServers != y.liveServers)
            return false;
    }
    return a.guaranteedInstances == b.guaranteedInstances &&
           a.bestEffortInstances == b.bestEffortInstances &&
           a.violatingServers == b.violatingServers &&
           a.lost == b.lost && a.placed == b.placed;
}

/** The PR 5 conservation identity, extended to both tiers. */
bool
conservationHolds(const StreamResult &r)
{
    return r.placed - r.departures - r.lost ==
               r.guaranteedInstances &&
           r.evictions == r.replacements + r.lost &&
           r.fillerPlaced - r.fillerEvicted == r.bestEffortInstances;
}

void
printResultSummary(const StreamResult &r)
{
    std::printf("  final: %" PRId64 "/%" PRId64
                " servers up, guaranteed %" PRId64
                ", best-effort %" PRId64 ", violating %" PRId64 "\n",
                r.liveServers, r.servers, r.guaranteedInstances,
                r.bestEffortInstances, r.violatingServers);
    std::printf("  totals: placed %" PRId64 " (+%" PRId64
                " replaced), rejected %" PRId64 ", departed %" PRId64
                ", lost %" PRId64 ", filler +%" PRId64 "/-%" PRId64
                "\n",
                r.placed, r.replacements, r.rejected, r.departures,
                r.lost, r.fillerPlaced, r.fillerEvicted);
    std::printf("  utilization %.6f, goodput %.6f, violation rate "
                "%.6f\n",
                r.utilization(), r.goodputUtilization(),
                r.violationRate());
    std::printf("  conservation: placed - departures - lost = %" PRId64
                " == guaranteed %" PRId64 "; evictions %" PRId64
                " == replacements + lost %" PRId64 "  [%s]\n",
                r.placed - r.departures - r.lost,
                r.guaranteedInstances, r.evictions,
                r.replacements + r.lost,
                conservationHolds(r) ? "ok" : "VIOLATED");
    std::printf("  digest %016" PRIx64 "\n", r.digest);
}

int
runDeterminismMode()
{
    const std::int64_t servers = 4000;
    const int epochs = 32;
    const ChurnConfig churn = churnFor(servers);

    std::printf("determinism mode: %" PRId64
                " servers, %d epochs, full-scan reference vs calendar "
                "engine\n\n",
                servers, epochs);

    ShardedCluster reference(fleetClasses(), fleetMix(servers),
                             kReference);
    ShardedCluster calendar(fleetClasses(), fleetMix(servers),
                            kCalendar);
    const StreamResult ref = reference.runStream(kTiers, churn, epochs);
    const StreamResult cal = calendar.runStream(kTiers, churn, epochs);
    std::printf("reference digest %016" PRIx64 "\n", ref.digest);
    std::printf("calendar  digest %016" PRIx64 "\n", cal.digest);

    bool ok = conservationHolds(ref) && conservationHolds(cal);
    if (!reference.verifyAggregates() || !calendar.verifyAggregates()) {
        std::printf("aggregate cross-check FAILED\n");
        ok = false;
    }
    if (!sameResult(ref, cal)) {
        std::printf("\ncalendar engine diverged from the reference\n");
        ok = false;
    }

    std::printf("\nepoch timeline (identical for both engines):"
                "\n%6s %6s %6s %6s %6s %6s %6s %10s %10s\n",
                "epoch", "fail", "recov", "depart", "placed", "lost",
                "events", "util", "goodput");
    for (const auto &row : ref.timeline) {
        std::printf("%6" PRId64 " %6" PRId64 " %6" PRId64 " %6" PRId64
                    " %6" PRId64 " %6" PRId64 " %6" PRId64
                    " %10.6f %10.6f\n",
                    row.epoch, row.failures, row.recoveries,
                    row.departures, row.placed, row.lost, row.events,
                    row.utilization, row.goodputUtilization);
    }
    std::printf("\n");
    printResultSummary(ref);
    std::printf("\nbyte-identical across engines: %s\n",
                ok ? "yes" : "NO");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--determinism") == 0)
        return runDeterminismMode();

    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_sched.json";

    const unsigned cores = std::thread::hardware_concurrency();
    obs::RunReport report("bench_scaleout_stress");
    report.setConfig("cores", obs::json::Value(static_cast<int>(cores)));
    report.setConfig("repeats", obs::json::Value(kRepeats));
    report.setConfig("qos_target", obs::json::Value(kTiers.qosTarget));
    report.setConfig("best_effort_floor",
                     obs::json::Value(kTiers.bestEffortFloor));
    // Throughput is wall-clock and swings with host load; everything
    // else is a pure function of the keyed churn trace.
    report.addGate("results.*_epochs_per_sec", obs::json::Value(0.6));
    report.addGate("results.*", obs::json::Value(0));

    std::printf("warehouse-scale scheduler stress "
                "(full-scan reference vs calendar engine, "
                "wall-clock median of %d, %u cores)\n\n",
                kRepeats, cores);

    struct Scale {
        const char *tag;
        std::int64_t servers;
        int epochs;
    };
    const Scale scales[] = {
        {"s4k", 4000, 256}, {"s32k", 32000, 96}, {"s128k", 128000, 64}};

    bool ok = true;
    for (const Scale &scale : scales) {
        const ChurnConfig churn = churnFor(scale.servers);
        ShardedCluster reference(fleetClasses(),
                                 fleetMix(scale.servers), kReference);
        ShardedCluster calendar(fleetClasses(),
                                fleetMix(scale.servers), kCalendar);

        // Equivalence self-check first: both engines, same trace,
        // identical results — otherwise any speedup is meaningless.
        const StreamResult a =
            reference.runStream(kTiers, churn, scale.epochs);
        const StreamResult b =
            calendar.runStream(kTiers, churn, scale.epochs);
        if (!sameResult(a, b) || !conservationHolds(b) ||
            !reference.verifyAggregates() ||
            !calendar.verifyAggregates()) {
            std::printf("%s: ENGINE MISMATCH (reference %016" PRIx64
                        " vs calendar %016" PRIx64 ")\n",
                        scale.tag, a.digest, b.digest);
            ok = false;
            continue;
        }

        const double t_reference = medianSeconds([&] {
            reference.runStream(kTiers, churn, scale.epochs);
        });
        const double t_calendar = medianSeconds([&] {
            calendar.runStream(kTiers, churn, scale.epochs);
        });
        const double eps_reference = scale.epochs / t_reference;
        const double eps_calendar = scale.epochs / t_calendar;

        std::printf("%-6s %7" PRId64 " servers, %3d epochs: "
                    "reference %9.1f epochs/s, calendar %9.1f epochs/s "
                    "(%.2fx)\n",
                    scale.tag, scale.servers, scale.epochs,
                    eps_reference, eps_calendar,
                    eps_calendar / eps_reference);
        printResultSummary(b);
        std::printf("\n");

        const std::string tag = scale.tag;
        report.setConfig(tag + "_servers",
                         obs::json::Value(scale.servers));
        report.setConfig(tag + "_epochs",
                         obs::json::Value(scale.epochs));
        report.addTiming(tag + "_reference_s", t_reference);
        report.addTiming(tag + "_calendar_s", t_calendar);
        report.addResult(tag + "_lockstep_epochs_per_sec",
                         obs::json::Value(eps_reference));
        report.addResult(tag + "_sharded_epochs_per_sec",
                         obs::json::Value(eps_calendar));
        report.addResult(tag + "_utilization",
                         obs::json::Value(b.utilization()));
        report.addResult(tag + "_goodput_utilization",
                         obs::json::Value(b.goodputUtilization()));
        report.addResult(tag + "_violation_rate",
                         obs::json::Value(b.violationRate()));
        report.addResult(
            tag + "_guaranteed_instances",
            obs::json::Value(
                static_cast<double>(b.guaranteedInstances)));
        report.addResult(
            tag + "_best_effort_instances",
            obs::json::Value(
                static_cast<double>(b.bestEffortInstances)));
        report.addResult(tag + "_lost_instances",
                         obs::json::Value(
                             static_cast<double>(b.lost)));
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016" PRIx64, b.digest);
        report.addResult(tag + "_digest",
                         obs::json::Value(std::string(digest)));
    }

    if (!ok)
        return 1;
    if (!report.writeTo(out_path))
        return 1;
    std::printf("report written to %s\n", out_path.c_str());
    return 0;
}
