/**
 * @file
 * Byte-identity suite for the run-level replay subsystem
 * (sim/replay.h): interval memoization in the ReplayStore and the
 * `sim.replay` chaos site that forces random runs down the live path.
 *
 * The contract under test is the one docs/ROBUSTNESS.md states for
 * the whole simulator: turning replay on or off (or having a chaos
 * fault knock individual runs back to live execution) must not change
 * a single byte of any run's counters.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "sim/machine.h"
#include "sim/replay.h"
#include "workload/generator.h"
#include "workload/rng.h"
#include "workload/spec2006.h"

namespace smite::sim {
namespace {

/** Restore the process-wide replay switch on scope exit. */
struct ReplayGuard {
    explicit ReplayGuard(bool on) : prev(setReplayEnabled(on)) {}
    ~ReplayGuard() { setReplayEnabled(prev); }
    bool prev;
};

constexpr int kNumFields = 23;

std::array<std::uint64_t, kNumFields>
flatten(const CounterBlock &c)
{
    return {c.cycles,          c.uops,
            c.portIssued[0],   c.portIssued[1],
            c.portIssued[2],   c.portIssued[3],
            c.portIssued[4],   c.portIssued[5],
            c.loads,           c.stores,
            c.branches,        c.branchMispredicts,
            c.l1dHits,         c.l1dMisses,
            c.l2Hits,          c.l2Misses,
            c.l3Hits,          c.l3Misses,
            c.icacheMisses,    c.itlbMisses,
            c.dtlbLoadMisses,  c.dtlbStoreMisses,
            c.fetchStallCycles};
}

std::uint64_t
counter(const std::string &name)
{
    return obs::Registry::global().counter(name).value();
}

void
expectSameResults(const std::vector<CounterBlock> &got,
                  const std::vector<CounterBlock> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < got.size(); ++p)
        EXPECT_EQ(flatten(got[p]), flatten(want[p])) << "placement " << p;
}

// ===================================================================
// Replay-vs-live machine equivalence: randomized shapes.
// ===================================================================

/**
 * The replay analogue of EventDrivenEquivalence (test_golden_sim):
 * random machine shapes, workload mixes and interval lengths, each
 * run three ways — live (replay disabled), replay-computing (replay
 * enabled, first sighting of the key) and replay-hit (replay enabled,
 * repeat of the key) — with every counter required to match exactly.
 */
TEST(ReplayEquivalence, RandomShapesMatchLivePath)
{
    const auto &pool = workload::spec2006::all();
    workload::Rng rng(0x5E9'1A7B3ull);
    ReplayGuard guard(true);

    constexpr int kTrials = 12;
    for (int t = 0; t < kTrials; ++t) {
        SCOPED_TRACE("trial " + std::to_string(t));

        MachineConfig config = (rng.nextU64() & 1) != 0
                                   ? MachineConfig::ivyBridge()
                                   : MachineConfig::sandyBridgeEN();
        if ((rng.nextU64() & 3) == 0)
            config.contextsPerCore = 4;
        if ((rng.nextU64() & 3) == 0)
            config.inclusiveL3 = true;
        if ((rng.nextU64() & 3) == 0)
            config.l2NextLinePrefetch = true;
        if ((rng.nextU64() & 3) == 0)
            config.core.fetchPolicy = FetchPolicy::kIcount;
        // Vary a latency so every trial gets a distinct config digest
        // (fresh replay keys even across repeated shape draws).
        config.dram.accessLatency += t;

        const int n_streams = 1 + static_cast<int>(rng.nextU64() % 4);
        std::vector<std::pair<int, int>> slots;
        for (int c = 0; c < config.numCores; ++c)
            for (int k = 0; k < config.contextsPerCore; ++k)
                slots.emplace_back(c, k);
        for (std::size_t i = slots.size(); i > 1; --i)
            std::swap(slots[i - 1], slots[rng.nextU64() % i]);

        std::vector<const workload::WorkloadProfile *> profiles;
        for (int i = 0; i < n_streams; ++i)
            profiles.push_back(&pool[rng.nextU64() % pool.size()]);

        const Cycle warmup = rng.nextU64() % 2'000;
        const Cycle measure = 500 + rng.nextU64() % 4'000;

        // Fresh sources per run: identical (profile, seed) pairs give
        // identical stream digests, so the replay key repeats even
        // though the objects don't.
        const auto run_once = [&](bool replay) {
            ReplayGuard inner(replay);
            Machine machine(config);
            std::vector<workload::ProfileUopSource> sources;
            sources.reserve(profiles.size());
            for (const auto *p : profiles)
                sources.emplace_back(*p);
            std::vector<Placement> placements;
            for (int i = 0; i < n_streams; ++i) {
                placements.push_back(Placement{
                    slots[i].first, slots[i].second, &sources[i]});
            }
            return machine.run(placements, warmup, measure);
        };

        const auto live = run_once(false);
        const auto computed = run_once(true);   // first sighting
        const auto replayed = run_once(true);   // store hit
        expectSameResults(computed, live);
        expectSameResults(replayed, live);
    }
}

/** A repeated run is served out of the store, and bit-identically. */
TEST(ReplayStore, RepeatRunsHitAndMatch)
{
    ReplayGuard guard(true);
    const Machine machine(MachineConfig::ivyBridge());

    const auto run_solo = [&] {
        workload::ProfileUopSource app(
            workload::spec2006::byName("456.hmmer"));
        // Distinct warmup from every other test in this binary keeps
        // the key's first sighting inside this test.
        return machine.runSolo(app, 2'017, 3'000);
    };

    const std::uint64_t hits0 = counter("machine.replay.hits");
    const auto first = run_solo();
    const auto second = run_solo();
    EXPECT_EQ(counter("machine.replay.hits"), hits0 + 1);
    EXPECT_EQ(flatten(first), flatten(second));
}

/** The kill-switch really kills: no store traffic when disabled. */
TEST(ReplayStore, DisabledPathTouchesNoStores)
{
    ReplayGuard guard(false);
    const Machine machine(MachineConfig::ivyBridge());

    const std::uint64_t hits0 = counter("machine.replay.hits");
    const std::uint64_t misses0 = counter("machine.replay.misses");
    for (int i = 0; i < 2; ++i) {
        workload::ProfileUopSource app(
            workload::spec2006::byName("470.lbm"));
        machine.runSolo(app, 500, 1'500);
    }
    EXPECT_EQ(counter("machine.replay.hits"), hits0);
    EXPECT_EQ(counter("machine.replay.misses"), misses0);
}

/**
 * The run-level store is process-wide: a second Lab with the same
 * configuration and intervals re-derives the first Lab's Ruler
 * characterizations and pair degradations — solo, Ruler-baseline,
 * Ruler co-run and pair runs — entirely from replay hits, and every
 * value agrees bit for bit.
 */
TEST(ReplayStore, CrossLabRunsReplay)
{
    ReplayGuard guard(true);
    std::vector<workload::WorkloadProfile> profiles;
    for (const char *name :
         {"456.hmmer", "470.lbm", "429.mcf", "453.povray"})
        profiles.push_back(workload::spec2006::byName(name));
    const auto mode = core::CoLocationMode::kSmt;
    // Intervals distinct from every other test in this binary, so the
    // first Lab's runs are the store's first sightings of their keys.
    constexpr Cycle kWarmup = 2'039;
    constexpr Cycle kMeasure = 3'300;

    core::Lab first(MachineConfig::ivyBridge(), kWarmup, kMeasure);
    const auto chars1 = first.characterizeAll(profiles, mode);
    const auto pairs1 = first.measureAllPairs(profiles, mode);

    const std::uint64_t hits0 = counter("machine.replay.hits");
    const std::uint64_t runs0 = counter("machine.runs");
    core::Lab second(MachineConfig::ivyBridge(), kWarmup, kMeasure);
    const auto chars2 = second.characterizeAll(profiles, mode);
    const auto pairs2 = second.measureAllPairs(profiles, mode);

    // Every machine run the second Lab issued was a replay hit.
    const std::uint64_t runs = counter("machine.runs") - runs0;
    EXPECT_GT(runs, 0u);
    EXPECT_EQ(counter("machine.replay.hits") - hits0, runs);

    ASSERT_EQ(chars2.size(), chars1.size());
    for (std::size_t i = 0; i < chars1.size(); ++i) {
        SCOPED_TRACE(profiles[i].name);
        ASSERT_TRUE(chars1[i].valid);
        ASSERT_TRUE(chars2[i].valid);
        EXPECT_EQ(chars2[i].sensitivity, chars1[i].sensitivity);
        EXPECT_EQ(chars2[i].contentiousness, chars1[i].contentiousness);
    }
    EXPECT_EQ(pairs2, pairs1);
}

/** A profile stream that hides its identity (digest 0: no replay). */
class AnonymousSource : public UopSource
{
  public:
    explicit AnonymousSource(const char *name)
        : inner_(workload::spec2006::byName(name))
    {
    }
    Uop next() override { return inner_.next(); }
    void reset() override { inner_.reset(); }

  private:
    workload::ProfileUopSource inner_;
};

/**
 * Every run is exactly one replay hit, wait, miss or bypass, so exact
 * machine.runs, misses and bypassed pin hits + waits — what the
 * BENCH_pred.json gate relies on when it ignores hits and waits.
 */
TEST(ReplayStore, RunsAreHitsWaitsMissesOrBypasses)
{
    const auto snapshot = [] {
        return std::array<std::uint64_t, 5>{
            counter("machine.runs"), counter("machine.replay.hits"),
            counter("machine.replay.waits"),
            counter("machine.replay.misses"),
            counter("machine.replay.bypassed")};
    };
    const Machine machine(MachineConfig::ivyBridge());
    const auto before = snapshot();
    {
        ReplayGuard on(true);
        for (int i = 0; i < 2; ++i) {  // a miss, then a hit
            workload::ProfileUopSource app(
                workload::spec2006::byName("456.hmmer"));
            machine.runSolo(app, 2'053, 3'000);
        }
        AnonymousSource anonymous("456.hmmer");
        machine.runSolo(anonymous, 2'053, 3'000);
    }
    {
        ReplayGuard off(false);
        workload::ProfileUopSource app(
            workload::spec2006::byName("456.hmmer"));
        machine.runSolo(app, 2'053, 3'000);
    }
    const auto after = snapshot();
    std::array<std::uint64_t, 5> delta{};
    for (std::size_t i = 0; i < delta.size(); ++i)
        delta[i] = after[i] - before[i];
    const auto [runs, hits, waits, misses, bypassed] = delta;
    EXPECT_EQ(runs, 4u);
    EXPECT_EQ(hits, 1u);
    EXPECT_EQ(misses, 1u);
    EXPECT_EQ(bypassed, 2u);
    EXPECT_EQ(runs, hits + waits + misses + bypassed);
}

/** Reference-ticking runs bypass the store entirely. */
TEST(ReplayStore, ReferenceTickingBypasses)
{
    ReplayGuard guard(true);
    Machine machine(MachineConfig::ivyBridge());
    machine.setReferenceTicking(true);

    const std::uint64_t hits0 = counter("machine.replay.hits");
    const std::uint64_t misses0 = counter("machine.replay.misses");
    workload::ProfileUopSource app(
        workload::spec2006::byName("456.hmmer"));
    machine.runSolo(app, 300, 1'000);
    EXPECT_EQ(counter("machine.replay.hits"), hits0);
    EXPECT_EQ(counter("machine.replay.misses"), misses0);
}

// ===================================================================
// `sim.replay` chaos determinism.
// ===================================================================

/**
 * The keyed `sim.replay` fault site forces runs down the live path.
 * Because replay is byte-identical by contract, a chaos run — any
 * probability, any seed — must still match the memo-off run exactly,
 * and the injections must be visible on the fault counters.
 */
TEST(ReplayChaos, ForcedLiveRunsStayByteIdentical)
{
    fault::FaultPlan &plan = fault::FaultPlan::global();
    plan.reset();
    const Machine machine(MachineConfig::ivyBridge());

    const auto run_pair = [&](Cycle measure) {
        workload::ProfileUopSource a(
            workload::spec2006::byName("456.hmmer"));
        workload::ProfileUopSource b(
            workload::spec2006::byName("433.milc"));
        return machine.runPairSmt(a, b, 700, measure);
    };

    // Baseline outcomes with replay off and no faults armed.
    std::vector<std::vector<CounterBlock>> want;
    {
        ReplayGuard off(false);
        for (int i = 0; i < 6; ++i)
            want.push_back(run_pair(1'200 + 61 * i));
    }

    for (const double p : {1.0, 0.5}) {
        SCOPED_TRACE("p=" + std::to_string(p));
        fault::SiteSpec spec;
        spec.probability = p;
        spec.seed = 99;
        plan.arm("sim.replay", spec);
        const std::uint64_t injected0 =
            counter("fault.sim.replay.injected");

        ReplayGuard on(true);
        for (int i = 0; i < 6; ++i) {
            expectSameResults(run_pair(1'200 + 61 * i), want[i]);
            // Repeat immediately: faulted keys recompute live, spared
            // keys replay — either way the bytes must not move.
            expectSameResults(run_pair(1'200 + 61 * i), want[i]);
        }
        EXPECT_GT(counter("fault.sim.replay.checks"), 0u);
        if (p == 1.0) {
            EXPECT_GT(counter("fault.sim.replay.injected"), injected0);
        }
        plan.reset();
    }
}

} // namespace
} // namespace smite::sim
