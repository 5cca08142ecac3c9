/**
 * @file
 * Tests for the parallel measurement engine: the parallelFor
 * primitive, the determinism contract of the Lab batch
 * APIs (parallel == serial, byte for byte), the single-flight
 * guarantee of MemoCache and of the ReplayStore built on it, and the
 * SMITE_THREADS=1 serial path.
 *
 * The ReplayStore is process-wide, so every case that counts its
 * misses measures at intervals no other case in this binary uses.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "sim/memo_cache.h"
#include "workload/spec2006.h"

namespace smite::core {
namespace {

/** Scoped SMITE_THREADS override. */
class ScopedThreadsEnv
{
  public:
    explicit ScopedThreadsEnv(const char *value)
    {
        const char *old = std::getenv("SMITE_THREADS");
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value)
            setenv("SMITE_THREADS", value, 1);
        else
            unsetenv("SMITE_THREADS");
    }
    ~ScopedThreadsEnv()
    {
        if (had_)
            setenv("SMITE_THREADS", old_.c_str(), 1);
        else
            unsetenv("SMITE_THREADS");
    }

  private:
    bool had_ = false;
    std::string old_;
};

std::vector<workload::WorkloadProfile>
smallSet()
{
    return {workload::spec2006::byName("401.bzip2"),
            workload::spec2006::byName("429.mcf"),
            workload::spec2006::byName("453.povray"),
            workload::spec2006::byName("470.lbm")};
}

constexpr sim::Cycle kWarmup = 2'000;
constexpr sim::Cycle kMeasure = 8'000;

/** Runs simulated so far in this process (replay-store misses). */
std::uint64_t
storeMisses()
{
    return obs::Registry::global().counter("machine.replay.misses").value();
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    parallelFor(
        hits.size(),
        [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        4);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

/** Three tasks at width 16 run on three threads, not sixteen. */
TEST(ParallelFor, StartsAtMostOneWorkerPerTask)
{
    std::vector<std::atomic<int>> hits(3);
    parallelFor(
        hits.size(),
        [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        16);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(obs::Registry::global().gauge("pool.width").value(), 3.0);
}

TEST(ParallelFor, AssembledResultsMatchSerial)
{
    std::vector<double> serial(100), parallel(100);
    const auto f = [](std::size_t i) {
        return static_cast<double>(i * i) * 0.25 + 1.0;
    };
    for (std::size_t i = 0; i < serial.size(); ++i)
        serial[i] = f(i);
    parallelFor(
        parallel.size(),
        [&](std::size_t i) { parallel[i] = f(i); }, 8);
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, PropagatesExceptions)
{
    EXPECT_THROW(
        parallelFor(
            16,
            [](std::size_t i) {
                if (i == 7)
                    throw std::runtime_error("boom");
            },
            4),
        std::runtime_error);
}

TEST(ParallelFor, ThrowingIterationStillRunsTheRest)
{
    // The documented contract: the first exception is rethrown once,
    // after every other iteration has run. The other iterations are
    // slow, so later indices are still unclaimed when index 7 throws
    // and a loop that stopped at the first exception would skip them.
    std::vector<std::atomic<int>> hits(16);
    int caught = 0;
    try {
        parallelFor(
            hits.size(),
            [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
                if (i == 7)
                    throw std::runtime_error("boom");
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            },
            4);
    } catch (const std::runtime_error &) {
        ++caught;
    }
    EXPECT_EQ(caught, 1);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SmiteThreadsOneDegradesToSerialPath)
{
    ScopedThreadsEnv env("1");
    EXPECT_EQ(defaultThreadCount(), 1);
    // With one thread every iteration runs inline on the caller.
    const auto caller = std::this_thread::get_id();
    std::set<std::thread::id> ids;
    parallelFor(32, [&](std::size_t) { ids.insert(std::this_thread::get_id()); });
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), caller);
}

TEST(ParallelFor, SmiteThreadsEnvOverridesWidth)
{
    ScopedThreadsEnv env("5");
    EXPECT_EQ(defaultThreadCount(), 5);
    Lab lab(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    EXPECT_EQ(lab.parallelism(), 5);
    lab.setParallelism(2);
    EXPECT_EQ(lab.parallelism(), 2);
}

TEST(MemoCache, SingleFlightUnderContention)
{
    sim::MemoCache<int, int> cache;
    std::atomic<int> computed{0};
    std::vector<std::thread> threads;
    std::vector<int> results(8, -1);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            results[t] = cache.getOrCompute(42, [&] {
                computed.fetch_add(1);
                // Widen the race window so waiters really pile up.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                return 1234;
            });
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(computed.load(), 1);
    EXPECT_EQ(cache.computeCount(), 1u);
    for (int r : results)
        EXPECT_EQ(r, 1234);
}

TEST(MemoCache, FailedComputeDoesNotPoisonKey)
{
    sim::MemoCache<int, int> cache;
    int calls = 0;
    // First flight throws: the exception reaches the caller and the
    // key must NOT be cached as a permanent failure.
    EXPECT_THROW(cache.getOrCompute(7,
                                    [&]() -> int {
                                        ++calls;
                                        throw std::runtime_error(
                                            "transient");
                                    }),
                 std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);
    // A retry recomputes and succeeds.
    const int value = cache.getOrCompute(7, [&] {
        ++calls;
        return 99;
    });
    EXPECT_EQ(value, 99);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(cache.computeCount(), 2u);
    // ...and the success is memoized.
    EXPECT_EQ(cache.getOrCompute(7, [&] { return ++calls; }), 99);
    EXPECT_EQ(calls, 2);
}

TEST(MemoCache, WaitersObserveFlightExceptionAndKeyStaysRetryable)
{
    sim::MemoCache<int, int> cache;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            try {
                cache.getOrCompute(1, [&]() -> int {
                    // Let the other threads join the flight as
                    // waiters before it fails.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    throw std::runtime_error("flight failed");
                });
            } catch (const std::runtime_error &) {
                failures.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    // Every thread — the computing one and all waiters on the same
    // flight — sees the failure. Some threads may have started fresh
    // flights after the first was erased, so at least one compute ran
    // and every thread failed.
    EXPECT_EQ(failures.load(), 8);
    EXPECT_GE(cache.computeCount(), 1u);
    EXPECT_EQ(cache.size(), 0u);
    // The key recovers on the next call.
    EXPECT_EQ(cache.getOrCompute(1, [] { return 5; }), 5);
}

TEST(Lab, CharacterizeAllMatchesSerialExactly)
{
    const auto profiles = smallSet();
    const auto mode = CoLocationMode::kSmt;

    Lab serial(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    serial.setParallelism(1);
    Lab parallel(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    parallel.setParallelism(4);

    const auto batch = parallel.characterizeAll(profiles, mode);
    ASSERT_EQ(batch.size(), profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const Characterization &ref =
            serial.characterization(profiles[i], mode);
        for (int d = 0; d < rulers::kNumDimensions; ++d) {
            EXPECT_EQ(batch[i].sensitivity[d], ref.sensitivity[d]);
            EXPECT_EQ(batch[i].contentiousness[d],
                      ref.contentiousness[d]);
        }
    }
}

TEST(Lab, MeasureAllPairsMatchesSerialExactly)
{
    const auto profiles = smallSet();
    const auto mode = CoLocationMode::kSmt;

    // Intervals of its own: the miss count below starts from an
    // empty store.
    constexpr sim::Cycle warmup = 2'020;
    Lab serial(sim::MachineConfig::ivyBridge(), warmup, kMeasure);
    serial.setParallelism(1);
    Lab parallel(sim::MachineConfig::ivyBridge(), warmup, kMeasure);
    parallel.setParallelism(4);

    const std::uint64_t misses0 = storeMisses();
    const auto matrix = parallel.measureAllPairs(profiles, mode);
    // One simulation per solo and per unordered pair, not per ordered
    // pair.
    const std::size_t n = profiles.size();
    EXPECT_EQ(storeMisses() - misses0, n * (n - 1) / 2 + n);
    ASSERT_EQ(matrix.size(), profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        for (std::size_t j = 0; j < profiles.size(); ++j) {
            if (i == j) {
                EXPECT_EQ(matrix[i][j], 0.0);
                continue;
            }
            EXPECT_EQ(matrix[i][j],
                      serial.pairDegradation(profiles[i], profiles[j],
                                             mode));
        }
    }
}

TEST(Lab, SoloIpcAllMatchesSerialExactly)
{
    const auto profiles = smallSet();
    Lab serial(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    serial.setParallelism(1);
    Lab parallel(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    parallel.setParallelism(4);

    const auto batch = parallel.soloIpcAll(profiles);
    ASSERT_EQ(batch.size(), profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i)
        EXPECT_EQ(batch[i], serial.soloIpc(profiles[i]));
}

TEST(Lab, ConcurrentCacheHitsSimulateOnce)
{
    Lab lab(sim::MachineConfig::ivyBridge(), 2'030, kMeasure);
    const auto &a = workload::spec2006::byName("401.bzip2");
    const auto &b = workload::spec2006::byName("429.mcf");

    const std::uint64_t misses0 = storeMisses();
    std::vector<std::thread> threads;
    std::vector<double> results(8);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            results[t] =
                lab.pairDegradation(a, b, CoLocationMode::kSmt);
        });
    }
    for (auto &th : threads)
        th.join();

    for (double r : results)
        EXPECT_EQ(r, results[0]);
    // Single flight: one pair simulation and one solo per workload,
    // no matter how many threads raced on the same runs.
    EXPECT_EQ(storeMisses() - misses0, 1u + 2u);
}

TEST(Lab, ConcurrentCharacterizationsSimulateOnce)
{
    Lab lab(sim::MachineConfig::ivyBridge(), 2'040, kMeasure);
    const auto &a = workload::spec2006::byName("453.povray");

    const std::uint64_t misses0 = storeMisses();
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
        threads.emplace_back([&] {
            lab.characterization(a, CoLocationMode::kSmt);
        });
    }
    for (auto &th : threads)
        th.join();

    // One solo run, then one Ruler baseline and one co-run per
    // dimension.
    EXPECT_EQ(storeMisses() - misses0,
              1u + 2u * static_cast<std::uint64_t>(rulers::kNumDimensions));
}

TEST(Lab, PairDirectionIndependentOfCallOrder)
{
    // The canonical (name-ordered) simulation makes both directions
    // of a pair identical regardless of which is asked first.
    const auto &a = workload::spec2006::byName("401.bzip2");
    const auto &b = workload::spec2006::byName("429.mcf");
    Lab forward(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);
    Lab backward(sim::MachineConfig::ivyBridge(), kWarmup, kMeasure);

    const double f_ab =
        forward.pairDegradation(a, b, CoLocationMode::kSmt);
    const double b_ba =
        backward.pairDegradation(b, a, CoLocationMode::kSmt);
    EXPECT_EQ(f_ab,
              backward.pairDegradation(a, b, CoLocationMode::kSmt));
    EXPECT_EQ(b_ba,
              forward.pairDegradation(b, a, CoLocationMode::kSmt));
}

} // namespace
} // namespace smite::core
