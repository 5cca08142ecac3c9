/**
 * @file
 * Microbenchmark harness for the simulation substrate: machine
 * throughput (simulated cycles and uops per second, solo and SMT
 * pair), cache/TLB lookup cost, trace generation, model fitting and
 * the queueing kernel.
 *
 * Unlike the figure harnesses this guards the *performance* of the
 * simulator, not its outputs. Every kernel is timed on CPU time
 * (median of several repeats, so scheduler noise on a shared box
 * mostly cancels) and the results are written to a machine-readable
 * `BENCH_sim.json` (schema `smite-run-report/1`) next to the
 * human-readable summary on stdout. The per-kernel min/median/max
 * across repeats lands in the report's `timings` block so the
 * run-to-run scatter behind each headline number is visible in the
 * committed baseline.
 *
 * The machine-throughput kernels construct fresh uop sources on every
 * iteration — the fig-grid shape, where each measurement builds its
 * own streams — so repeated intervals hit the run-level ReplayStore
 * (sim/replay.h). The `*_nomemo` variants re-run the same shape with
 * replay disabled, timing the full live path; the ratio
 * between the two is the replay win.
 *
 * The committed BENCH_sim.json at the repository root is the perf
 * baseline: `scripts/tier1.sh` re-runs this harness in Release and
 * diffs the fresh report against the baseline with `report_diff`,
 * under the gate declared below: every result within a relative 0.6
 * (`timings` are wall-clock and never diffed). That bound is
 * symmetric on max(|a|, |b|), so it passes any change up to 2.5x
 * either way: it catches a kernel that stopped working or got
 * several times slower, not an ordinary hot-path regression (a 2.4x
 * slowdown of `solo_50k_nomemo_cycles_per_sec` passes).
 *
 *   bench_sim_micro [output.json]   (default: BENCH_sim.json)
 */

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/smite.h"
#include "loadgen/arrival.h"
#include "obs/report.h"

using namespace smite;

namespace {

/** CPU time of this process in seconds (immune to co-runner load). */
double
cpuSeconds()
{
#if defined(__unix__) || defined(__APPLE__)
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
#else
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
#endif
}

/** Repeats per kernel; the median is the headline number. */
constexpr int kRepeats = 5;

/** CPU-time scatter of one kernel across the repeats. */
struct Times {
    double min_s = 0;
    double median_s = 0;
    double max_s = 0;
};

/**
 * Time @p kRepeats runs of @p fn. One untimed warmup run first so
 * cold caches and lazy allocations don't land in the first repeat
 * (for the replay-enabled kernels the warmup run also populates the
 * store, so the timed repeats measure the steady state).
 */
template <typename Fn>
Times
timeRepeats(Fn &&fn)
{
    fn();
    std::vector<double> times;
    times.reserve(kRepeats);
    for (int r = 0; r < kRepeats; ++r) {
        const double t0 = cpuSeconds();
        fn();
        times.push_back(cpuSeconds() - t0);
    }
    std::sort(times.begin(), times.end());
    return Times{times.front(), times[kRepeats / 2], times.back()};
}

/** Defeat dead-code elimination without a compiler intrinsic. */
volatile std::uint64_t g_sink;

/** Print + record one result on the active report. */
void
record(obs::RunReport &report, const std::string &key, double value,
       const char *unit)
{
    std::printf("%-28s %14.3f %s\n", key.c_str(), value, unit);
    report.addResult(key, obs::json::Value(value));
}

/** Record one kernel's repeat scatter in the report's timings. */
void
recordTimes(obs::RunReport &report, const std::string &tag,
            const Times &t)
{
    report.addTiming(tag + "_s_min", t.min_s);
    report.addTiming(tag + "_s_median", t.median_s);
    report.addTiming(tag + "_s_max", t.max_s);
}

/** Co-location shape of a machine-throughput benchmark. */
enum class Shape { kSolo, kSmtPair, kCmpPair };

/** Simulated-cycles/uops throughput of one placement shape. */
void
benchMachine(obs::RunReport &report, const std::string &tag,
             sim::Cycle cycles, int iters, Shape shape)
{
    const sim::Machine machine(sim::MachineConfig::ivyBridge());

    std::uint64_t uops = 0;
    const Times t = timeRepeats([&] {
        uops = 0;
        for (int i = 0; i < iters; ++i) {
            // Fresh sources every iteration: the fig-grid shape,
            // where each measurement constructs its own streams.
            // Identical (profile, seed) pairs give identical stream
            // digests, so with replay enabled every interval after
            // the first is a ReplayStore hit.
            workload::ProfileUopSource a(
                workload::spec2006::byName("456.hmmer"));
            workload::ProfileUopSource b(
                workload::spec2006::byName("470.lbm"));
            switch (shape) {
              case Shape::kSolo:
                uops += machine.runSolo(a, 0, cycles).uops;
                break;
              case Shape::kSmtPair:
                for (const auto &c :
                     machine.runPairSmt(a, b, 0, cycles))
                    uops += c.uops;
                break;
              case Shape::kCmpPair:
                for (const auto &c :
                     machine.runPairCmp(a, b, 0, cycles))
                    uops += c.uops;
                break;
            }
        }
    });
    const double sim_cycles = static_cast<double>(cycles) * iters;
    record(report, tag + "_cycles_per_sec", sim_cycles / t.median_s,
           "sim cycles/s");
    record(report, tag + "_uops_per_sec",
           static_cast<double>(uops) / t.median_s, "uops/s");
    recordTimes(report, tag, t);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_sim.json";
    bench::ReportScope scope("bench_sim_micro");
    obs::RunReport &report = scope.report();
    report.setConfig("machine", obs::json::Value("Ivy Bridge"));
    report.setConfig("repeats", obs::json::Value(kRepeats));
    report.setConfig("replay_enabled",
                     obs::json::Value(sim::replayEnabled()));
    report.addGate("results.*", obs::json::Value(0.6));

    std::printf("simulation-substrate microbenchmarks "
                "(median of %d CPU-time repeats)\n\n",
                kRepeats);

    // Machine throughput: the headline numbers. 50k-cycle runs are
    // the shape every Lab measurement takes; 10k-cycle runs keep the
    // fixed per-run setup cost (construction + key digest) visible.
    // Iteration counts are high because replay hits are microseconds
    // each — hundreds of iterations keep every timed repeat in the
    // milliseconds, where the CPU-time clock is trustworthy.
    benchMachine(report, "solo_50k", 50'000, 500, Shape::kSolo);
    benchMachine(report, "solo_10k", 10'000, 1'000, Shape::kSolo);
    benchMachine(report, "pair_50k", 50'000, 500, Shape::kSmtPair);
    benchMachine(report, "pair_10k", 10'000, 1'000, Shape::kSmtPair);
    // CMP pair: two cores, one context each — the multi-core shape
    // whose wake-list behavior differs most from the SMT pair (cores
    // can sleep independently).
    benchMachine(report, "cmp_pair", 50'000, 500, Shape::kCmpPair);

    // The same headline shapes with replay disabled: the full live
    // path, every iteration re-simulated.
    // memo-on / nomemo on the pair shape is the replay win the docs
    // quote (docs/PERFORMANCE.md).
    {
        const bool prev = sim::setReplayEnabled(false);
        benchMachine(report, "solo_50k_nomemo", 50'000, 4,
                     Shape::kSolo);
        benchMachine(report, "pair_50k_nomemo", 50'000, 2,
                     Shape::kSmtPair);
        sim::setReplayEnabled(prev);
    }

    // Cache lookup: hit-heavy pseudo-random pattern over an L2-sized
    // array, the single hottest comparison loop in the simulator.
    {
        sim::SetAssocCache cache(
            sim::CacheConfig{"L2", 256 * 1024, 8, 12});
        constexpr int kOps = 1'000'000;
        const Times t = timeRepeats([&] {
            std::uint64_t line = 0, hits = 0;
            for (int i = 0; i < kOps; ++i) {
                hits += cache.access(line, false).hit ? 1 : 0;
                line = (line * 2654435761u + 1) % 8192;
            }
            g_sink = hits;
        });
        record(report, "cache_access_ns", t.median_s / kOps * 1e9,
               "ns/op");
        recordTimes(report, "cache_access", t);
    }

    // TLB lookup: same shape, page-granular.
    {
        sim::Tlb tlb(sim::TlbConfig{512, 30});
        constexpr int kOps = 1'000'000;
        const Times t = timeRepeats([&] {
            std::uint64_t page = 0, hits = 0;
            for (int i = 0; i < kOps; ++i) {
                hits += tlb.access(page) ? 1 : 0;
                page = (page * 48271 + 1) % 1024;
            }
            g_sink = hits;
        });
        record(report, "tlb_access_ns", t.median_s / kOps * 1e9,
               "ns/op");
        recordTimes(report, "tlb_access", t);
    }

    // Trace generation: the synthetic-workload uop stream by itself.
    {
        workload::ProfileUopSource source(
            workload::spec2006::byName("403.gcc"));
        constexpr int kUops = 1'000'000;
        constexpr int kBatch = 64;
        sim::Uop buf[kBatch];
        const Times t = timeRepeats([&] {
            std::uint64_t sum = 0;
            for (int i = 0; i < kUops / kBatch; ++i) {
                source.nextBatch(buf, kBatch);
                sum += buf[0].pc;
            }
            g_sink = sum;
        });
        record(report, "trace_gen_uops_per_sec", kUops / t.median_s,
               "uops/s");
        recordTimes(report, "trace_gen", t);
    }

    // Model fitting: the ridge regression behind SMiTe training.
    {
        workload::Rng rng(42);
        const int dims = 22, samples = 200;
        std::vector<std::vector<double>> x;
        std::vector<double> y;
        for (int s = 0; s < samples; ++s) {
            std::vector<double> row(dims);
            for (double &v : row)
                v = rng.nextDouble();
            x.push_back(std::move(row));
            y.push_back(rng.nextDouble());
        }
        const Times t = timeRepeats([&] {
            const auto model = stats::LinearModel::fit(x, y, 1e-6);
            g_sink = static_cast<std::uint64_t>(
                model.weights().size());
        });
        record(report, "regression_fit_ms", t.median_s * 1e3,
               "ms/fit");
        recordTimes(report, "regression_fit", t);
    }

    // Queueing kernel: the tail-latency discrete-event simulation,
    // one server over a pre-generated Poisson stream (M/M/1).
    {
        loadgen::ArrivalConfig arrival;
        arrival.rate = 1200;
        arrival.seed = 1;
        const std::vector<double> arrivals =
            loadgen::ArrivalStream(arrival).generate(20000);
        queueing::OpenLoopConfig config;
        config.serviceRates = {2000};
        config.seed = 1;
        const Times t = timeRepeats([&] {
            g_sink = queueing::simulateOpenLoop(arrivals, config).completed;
        });
        record(report, "queue_sim_ms", t.median_s * 1e3, "ms/run");
        recordTimes(report, "queue_sim", t);
    }

    // Fold the scope's own artifacts (metrics/trace, when enabled)
    // before writing the perf baseline itself, which is unconditional.
    scope.finish();
    if (!scope.report().writeTo(out_path))
        return 1;
    std::printf("\nreport written to %s\n", out_path.c_str());
    return 0;
}
