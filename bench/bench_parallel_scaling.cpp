/**
 * @file
 * Parallel measurement-engine scaling harness: the Fig. 10 training
 * measurement phase (characterize every even-numbered SPEC benchmark
 * and measure all of its co-location pairs, SMT mode) run at 1, 2, 4
 * and 8 worker threads.
 *
 * Reports wall-clock time, speedup over the serial path, and the
 * number of runs simulated at each width (`machine.replay.misses`; the
 * ReplayStore is process-wide, so a later width replays what an
 * earlier one simulated), and verifies the determinism contract: the
 * assembled batch results must be byte-identical at every thread
 * count (exit status 1 otherwise).
 *
 * Simulated cycles per measurement default to a reduced interval
 * (10,000 warmup, 40,000 measure) so the sweep finishes in minutes;
 * SMITE_BENCH_WARMUP / SMITE_BENCH_MEASURE override them as in every
 * harness, and the report's config records the intervals simulated.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/parallel.h"

using namespace smite;

namespace {

/** Runs simulated so far (replay-store misses). */
std::uint64_t
simulatedRuns()
{
    return obs::Registry::global().counter("machine.replay.misses").value();
}

/** Full-precision serialization of the batch results. */
std::string
fingerprint(const std::vector<core::Characterization> &chars,
            const std::vector<std::vector<double>> &pairs)
{
    std::ostringstream out;
    out.precision(17);
    for (const auto &c : chars) {
        for (double v : c.sensitivity)
            out << v << " ";
        for (double v : c.contentiousness)
            out << v << " ";
        out << "\n";
    }
    for (const auto &row : pairs) {
        for (double v : row)
            out << v << " ";
        out << "\n";
    }
    return out.str();
}

/**
 * The Figures 14-17 measurement grid at one pool width: prefetch
 * every (latency, batch, instances) tuple in parallel, then assemble
 * the degradations serially from the warm store. Returns the
 * full-precision fingerprint of the assembled grid.
 */
std::string
scaleoutFingerprint(core::Lab &lab,
                    const std::vector<workload::WorkloadProfile> &latency,
                    const std::vector<workload::WorkloadProfile> &batch,
                    int threads, int max_instances)
{
    const auto mode = core::CoLocationMode::kSmt;
    lab.multiInstancePrefetch(latency, threads, batch, max_instances,
                              mode);
    std::ostringstream out;
    out.precision(17);
    for (const auto &l : latency) {
        for (const auto &b : batch) {
            for (int k = 1; k <= max_instances; ++k) {
                out << lab.multiInstanceDegradation(l, threads, b, k,
                                                    mode)
                    << " ";
            }
            out << "\n";
        }
    }
    return out.str();
}

} // namespace

int
main()
{
    bench::ReportScope obs_scope("bench_parallel_scaling");
    bench::banner("Parallel scaling",
                  "Fig. 10 training measurements (even-numbered SPEC, "
                  "SMT) at 1/2/4/8 threads");

    const auto train = workload::spec2006::evenNumbered();
    const auto mode = core::CoLocationMode::kSmt;
    const sim::Cycle warmup =
        obs::envPositive<sim::Cycle>("SMITE_BENCH_WARMUP", 10'000);
    const sim::Cycle measure =
        obs::envPositive<sim::Cycle>("SMITE_BENCH_MEASURE", 40'000);
    obs_scope.report().setConfig("warmup_cycles", obs::json::Value(warmup));
    obs_scope.report().setConfig("measure_cycles",
                                 obs::json::Value(measure));

    std::printf("%zu workloads, warmup=%llu measure=%llu cycles, "
                "host reports %u hardware threads\n\n",
                train.size(), static_cast<unsigned long long>(warmup),
                static_cast<unsigned long long>(measure),
                std::thread::hardware_concurrency());

    std::printf("%8s %12s %9s %12s\n", "threads", "wall-clock",
                "speedup", "simulations");

    std::string reference;
    double serial_seconds = 0.0;
    bool identical = true;
    for (const int threads : {1, 2, 4, 8}) {
        // A fresh Lab per width, with no run log.
        core::Lab lab(sim::MachineConfig::ivyBridge(), warmup, measure);
        lab.setParallelism(threads);

        const std::uint64_t simulated0 = simulatedRuns();
        const auto t0 = std::chrono::steady_clock::now();
        const auto chars = lab.characterizeAll(train, mode);
        const auto pairs = lab.measureAllPairs(train, mode);
        const auto t1 = std::chrono::steady_clock::now();
        const double seconds =
            std::chrono::duration<double>(t1 - t0).count();

        if (threads == 1) {
            reference = fingerprint(chars, pairs);
            serial_seconds = seconds;
        } else if (fingerprint(chars, pairs) != reference) {
            identical = false;
        }
        std::printf("%8d %11.2fs %8.2fx %12llu\n", threads, seconds,
                    serial_seconds / seconds,
                    static_cast<unsigned long long>(simulatedRuns() -
                                                    simulated0));
        obs_scope.report().addTiming(
            "threads_" + std::to_string(threads) + "_s", seconds);
    }
    bench::ReportScope::recordResult("byte_identical",
                                     obs::json::Value(identical));

    std::printf("\nparallel outputs byte-identical to serial: %s\n",
                identical ? "yes" : "NO — DETERMINISM VIOLATION");

    // The Figures 14-17 scale-out grid (multi-instance co-location
    // tuples fanned out via multiInstancePrefetch) must honour the
    // same contract: the grid assembled after a parallel prefetch is
    // byte-identical to the serial measurement order. A reduced grid
    // keeps the sweep in bench territory — 2 latency apps, 4 batch
    // apps, up to 4 instances on the 6-core Sandy Bridge EN.
    const auto &cloud = workload::cloudsuite::all();
    const std::vector<workload::WorkloadProfile> latency(
        cloud.begin(), cloud.begin() + 2);
    const std::vector<workload::WorkloadProfile> batch_apps(
        train.begin(), train.begin() + 4);
    const int grid_threads = 4;
    const int grid_instances = 4;

    std::printf("\nscale-out grid (%zux%zux%d tuples):\n",
                latency.size(), batch_apps.size(), grid_instances);
    std::printf("%8s %12s %12s\n", "threads", "wall-clock",
                "simulations");
    std::string grid_reference;
    bool grid_identical = true;
    for (const int threads : {1, 4}) {
        core::Lab lab(sim::MachineConfig::sandyBridgeEN(), warmup,
                      measure);
        lab.setParallelism(threads);
        const std::uint64_t simulated0 = simulatedRuns();
        const auto t0 = std::chrono::steady_clock::now();
        const std::string fp = scaleoutFingerprint(
            lab, latency, batch_apps, grid_threads, grid_instances);
        const auto t1 = std::chrono::steady_clock::now();
        if (threads == 1)
            grid_reference = fp;
        else if (fp != grid_reference)
            grid_identical = false;
        std::printf("%8d %11.2fs %12llu\n", threads,
                    std::chrono::duration<double>(t1 - t0).count(),
                    static_cast<unsigned long long>(simulatedRuns() -
                                                    simulated0));
    }
    bench::ReportScope::recordResult(
        "scaleout_byte_identical", obs::json::Value(grid_identical));
    std::printf("scale-out grid byte-identical to serial: %s\n",
                grid_identical ? "yes" : "NO — DETERMINISM VIOLATION");

    bench::paperReference(
        "the paper's offline characterization phase is embarrassingly "
        "parallel; SMiTe amortizes it across the fleet");
    return identical && grid_identical ? 0 : 1;
}
