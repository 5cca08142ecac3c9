/**
 * @file
 * Tests for the warehouse-scale streaming scheduler (shard.h): the
 * calendar engine against the full-scan reference, the churn
 * conservation invariants, tiered admission, and heterogeneous-fleet
 * placement. All tables are hand-built — no simulation needed.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics.h"
#include "queueing/keyed_stream.h"
#include "scheduler/keyed.h"
#include "scheduler/shard.h"

namespace smite::scheduler {
namespace {

/** A pairing whose QoS falls linearly with instance count. */
Pairing
linearPairing(const std::string &latency, const std::string &batch,
              double actual_per_instance, double predicted_per_instance,
              int max_instances)
{
    Pairing p;
    p.latencyApp = latency;
    p.batchApp = batch;
    for (int k = 1; k <= max_instances; ++k) {
        CoLocationOption option;
        option.actualQos = 1.0 - actual_per_instance * k;
        option.predictedQos = 1.0 - predicted_per_instance * k;
        p.byInstances.push_back(option);
    }
    return p;
}

/** One class with @p pairings linear tables at 2%..(2+Δ)% slopes. */
MachineClass
uniformClass(const std::string &name, int latency_threads,
             int contexts, int pairings, double base_slope = 0.02,
             double slope_step = 0.01)
{
    MachineClass mc;
    mc.name = name;
    mc.latencyThreads = latency_threads;
    mc.contextsPerServer = contexts;
    const int cap = mc.maxInstances();
    for (int i = 0; i < pairings; ++i) {
        const double slope = base_slope + slope_step * i;
        mc.pairings.push_back(linearPairing(
            "svc", "batch" + std::to_string(i), slope, slope, cap));
    }
    return mc;
}

ChurnConfig
testChurn()
{
    ChurnConfig churn;
    churn.arrivalsPerEpoch = 40;
    churn.departProb = 0.03;
    churn.failProb = 0.01;
    churn.recoverProb = 0.30;
    churn.probesPerJob = 4;
    churn.seed = 99;
    return churn;
}

bool
sameRun(const StreamResult &a, const StreamResult &b)
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
            x.guaranteedInstances != y.guaranteedInstances ||
            x.bestEffortInstances != y.bestEffortInstances ||
            x.liveServers != y.liveServers || x.events != y.events)
            return false;
    }
    return a.guaranteedInstances == b.guaranteedInstances &&
           a.bestEffortInstances == b.bestEffortInstances &&
           a.violatingServers == b.violatingServers &&
           a.placed == b.placed && a.lost == b.lost &&
           a.events == b.events;
}

TEST(Keyed, GeometricStepsEdgeCases)
{
    // p = 0: the event never happens.
    EXPECT_EQ(keyed::geometricSteps(0.0, 123u), keyed::kNever);
    EXPECT_EQ(keyed::geometricSteps(-1.0, 123u), keyed::kNever);
    // p = 1: the event happens on the very next epoch.
    EXPECT_EQ(keyed::geometricSteps(1.0, 123u), 1);
    EXPECT_EQ(keyed::geometricSteps(2.0, 123u), 1);
    // 0 < p < 1: always at least one step, and a pure function of
    // the hash.
    for (std::uint64_t h = 0; h < 64; ++h) {
        const std::int64_t gap = keyed::geometricSteps(0.25, h);
        EXPECT_GE(gap, 1);
        EXPECT_EQ(gap, keyed::geometricSteps(0.25, h));
    }
}

TEST(Keyed, DrawIsAPureFunctionOfItsKey)
{
    const std::uint64_t a = keyed::draw(7, 1, 42, 3);
    EXPECT_EQ(a, keyed::draw(7, 1, 42, 3));
    EXPECT_NE(a, keyed::draw(7, 1, 42, 4));
    EXPECT_NE(a, keyed::draw(7, 2, 42, 3));
    EXPECT_NE(a, keyed::draw(8, 1, 42, 3));
    const double u = keyed::toUnit(a);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    // Pinned values: each layer keeps its own domain constant, so the
    // scheduler's churn and the queueing layer's request streams stay
    // where committed baselines recorded them.
    EXPECT_EQ(a, 0xb3dd13693e31a4f0ull);
    EXPECT_EQ(
        queueing::keyed::draw(7, queueing::keyed::kSaltService, 42, 3),
        0x2ac5a8e1cad53b04ull);
}

TEST(ShardedCluster, RejectsBadConfiguration)
{
    const MachineClass mc = uniformClass("m", 6, 12, 2);
    // Mismatched classes/counts.
    EXPECT_THROW(ShardedCluster({mc}, {100, 100}),
                 std::invalid_argument);
    // No servers.
    EXPECT_THROW(ShardedCluster({mc}, {0}), std::invalid_argument);
    // More shards than servers.
    EXPECT_THROW(ShardedCluster({mc}, {4}, 8), std::invalid_argument);
    // Latency app needs at least one spare context.
    MachineClass full = mc;
    full.latencyThreads = full.contextsPerServer;
    EXPECT_THROW(ShardedCluster({full}, {100}),
                 std::invalid_argument);
    // Pairing table shorter than the instance capacity.
    MachineClass bad = mc;
    bad.pairings[0].byInstances.pop_back();
    EXPECT_THROW(ShardedCluster({bad}, {100}),
                 std::invalid_argument);

    ShardedCluster ok({mc}, {100}, 4);
    ChurnConfig churn = testChurn();
    churn.probesPerJob = 0;
    EXPECT_THROW(ok.runStream({}, churn, 8), std::invalid_argument);
    churn = testChurn();
    churn.failProb = 1.5;
    EXPECT_THROW(ok.runStream({}, churn, 8), std::invalid_argument);
    EXPECT_THROW(ok.runStream({}, testChurn(), 0),
                 std::invalid_argument);
}

TEST(ShardedCluster, CalendarMatchesFullScanReference)
{
    const std::vector<MachineClass> classes = {
        uniformClass("big", 6, 12, 3),
        uniformClass("small", 4, 8, 3, 0.03)};
    const std::vector<std::int64_t> mix = {600, 400};
    const TierPolicy tiers{0.90, 0.60};
    const ChurnConfig churn = testChurn();

    ShardedCluster lockstep(classes, mix, 1);
    ShardedCluster sharded4(classes, mix, 4);
    ShardedCluster sharded16(classes, mix, 16);

    const StreamResult a = lockstep.runStream(tiers, churn, 40);
    const StreamResult b = sharded4.runStream(tiers, churn, 40);
    const StreamResult c = sharded16.runStream(tiers, churn, 40);

    // The lockstep full-scan engine and the streaming calendar
    // engine consume the same keyed streams: byte-identical output.
    EXPECT_TRUE(sameRun(a, b));
    EXPECT_TRUE(sameRun(a, c));
    // And the run did something worth comparing.
    EXPECT_GT(a.placed, 0);
    EXPECT_GT(a.failures, 0);
    EXPECT_GT(a.departures, 0);
    EXPECT_GT(a.fillerPlaced, 0);

    // The streaming engine touched the same churn (events counts are
    // part of the timeline equality above) while every incremental
    // aggregate still matches a full recomputation.
    EXPECT_TRUE(lockstep.verifyAggregates());
    EXPECT_TRUE(sharded4.verifyAggregates());
    EXPECT_TRUE(sharded16.verifyAggregates());
}

TEST(ShardedCluster, EventPassIsOrderFree)
{
    // The calendar walks each bucket in filing order and files a
    // server once per event, so a server with several events due in
    // one epoch is visited several times. Churn this heavy makes that
    // common: two departures in one epoch, failures and recoveries
    // landing on departure epochs. The repeated visits must find
    // nothing left to do, and the unsorted walk must equal the full
    // scan's ascending one.
    const std::vector<MachineClass> classes = {
        uniformClass("big", 6, 12, 3),
        uniformClass("small", 4, 8, 3, 0.03)};
    const std::vector<std::int64_t> mix = {150, 100};
    const TierPolicy tiers{0.90, 0.60};
    ChurnConfig churn;
    churn.arrivalsPerEpoch = 100;
    churn.departProb = 0.5;
    churn.failProb = 0.2;
    churn.recoverProb = 0.5;
    churn.probesPerJob = 4;
    churn.seed = 17;

    ShardedCluster scan(classes, mix, 1);
    ShardedCluster calendar(classes, mix, 2);
    const StreamResult a = scan.runStream(tiers, churn, 60);
    const StreamResult b = calendar.runStream(tiers, churn, 60);

    EXPECT_TRUE(sameRun(a, b));
    EXPECT_TRUE(scan.verifyAggregates());
    EXPECT_TRUE(calendar.verifyAggregates());
    // An event is one server acting in one epoch, so more departures
    // than departure events means some server saw two in one epoch.
    EXPECT_GT(b.departures, b.events - b.failures - b.recoveries);
    EXPECT_GT(b.failures, 0);
    EXPECT_GT(b.recoveries, 0);
}

TEST(ShardedCluster, RunStreamIssuesNoPoolBatches)
{
    // The stream runs on the calling thread whatever the thread
    // setting: not one thread-pool batch, at bootstrap or per epoch.
    ShardedCluster cluster({uniformClass("m", 6, 12, 4)}, {800}, 8);
    cluster.setThreads(4);
    obs::Counter &batches =
        obs::Registry::global().counter("pool.batches");
    const std::uint64_t before = batches.value();
    const StreamResult r =
        cluster.runStream({0.90, 0.70}, testChurn(), 32);
    EXPECT_EQ(batches.value() - before, 0u);
    EXPECT_GT(r.events, 0);
}

TEST(ShardedCluster, ChurnConservation)
{
    const std::vector<MachineClass> classes = {
        uniformClass("big", 6, 12, 3),
        uniformClass("small", 4, 8, 3, 0.03)};
    ShardedCluster cluster(classes, {500, 300}, 8);
    ChurnConfig churn = testChurn();
    churn.failProb = 0.05;  // heavy churn so every path is exercised
    const StreamResult r =
        cluster.runStream({0.90, 0.60}, churn, 50);

    // Arrivals either land or are rejected.
    EXPECT_EQ(r.arrivals, r.placed + r.rejected);
    // PR 5's conservation identity, streamed: everything placed
    // either departed, was lost to a failure with no admissible
    // re-placement, or is still running.
    EXPECT_EQ(r.placed - r.departures - r.lost, r.guaranteedInstances);
    // Failure evictions either re-placed somewhere admissible or lost.
    EXPECT_EQ(r.evictions, r.replacements + r.lost);
    // Best-effort fillers: net placements equal the final census.
    EXPECT_EQ(r.fillerPlaced - r.fillerEvicted, r.bestEffortInstances);
    // The heavy churn actually exercised the loss path.
    EXPECT_GT(r.evictions, 0);
    EXPECT_GT(r.departures, 0);

    // Final per-server census agrees with the aggregate totals.
    std::int64_t g = 0, b = 0, live = 0;
    for (std::int64_t s = 0; s < cluster.servers(); ++s) {
        if (!cluster.upAt(s)) {
            EXPECT_EQ(cluster.guaranteedAt(s), 0);
            EXPECT_EQ(cluster.bestEffortAt(s), 0);
            continue;
        }
        ++live;
        g += cluster.guaranteedAt(s);
        b += cluster.bestEffortAt(s);
    }
    EXPECT_EQ(live, r.liveServers);
    EXPECT_EQ(g, r.guaranteedInstances);
    EXPECT_EQ(b, r.bestEffortInstances);
    EXPECT_TRUE(cluster.verifyAggregates());
}

TEST(ShardedCluster, PlacementPrefersTheMachineThePredictorTrusts)
{
    // Class "safe" meets the target at every count; class "risky"
    // is predicted to violate from the first instance. Placement
    // probes both (probes span the fleet) and must only ever land
    // guaranteed work on the safe machines.
    MachineClass safe = uniformClass("safe", 6, 12, 1, 0.01, 0.0);
    MachineClass risky = uniformClass("risky", 4, 8, 1, 0.20, 0.0);
    ShardedCluster cluster({safe, risky}, {200, 200}, 4);

    ChurnConfig churn;
    churn.arrivalsPerEpoch = 30;
    churn.probesPerJob = 8;
    churn.seed = 5;
    const StreamResult r = cluster.runStream({0.90, 0.0}, churn, 20);

    EXPECT_GT(r.placed, 0);
    EXPECT_EQ(r.violatingServers, 0);
    for (std::int64_t s = 0; s < cluster.servers(); ++s) {
        if (cluster.machineClassOf(s).name == "risky") {
            EXPECT_EQ(cluster.guaranteedAt(s), 0) << "server " << s;
        }
    }
}

TEST(ShardedCluster, BestEffortFillersYieldToGuaranteedWork)
{
    // One class, QoS good enough that everything is admissible: the
    // best-effort tier fills every spare context at bootstrap, then
    // must drain exactly as guaranteed arrivals claim the contexts.
    MachineClass mc = uniformClass("m", 6, 12, 1, 0.005, 0.0);
    ShardedCluster cluster({mc}, {100}, 4);

    ChurnConfig churn;
    churn.arrivalsPerEpoch = 25;
    churn.probesPerJob = 4;
    churn.seed = 11;
    const StreamResult r = cluster.runStream({0.90, 0.50}, churn, 10);

    // No churn besides arrivals: every context is busy the whole
    // run — fillers occupy whatever guaranteed work has not claimed.
    EXPECT_EQ(r.guaranteedInstances + r.bestEffortInstances,
              static_cast<std::int64_t>(100) * mc.maxInstances());
    EXPECT_EQ(r.placed, 250);
    EXPECT_EQ(r.fillerEvicted, r.placed);
    EXPECT_DOUBLE_EQ(r.utilization(), 1.0);

    // Disabling the best-effort tier leaves the spare contexts idle.
    ShardedCluster no_fill({mc}, {100}, 4);
    const StreamResult r2 =
        no_fill.runStream({0.90, 0.0}, churn, 10);
    EXPECT_EQ(r2.bestEffortInstances, 0);
    EXPECT_EQ(r2.fillerPlaced, 0);
    EXPECT_EQ(r2.guaranteedInstances, r.guaranteedInstances);
}

TEST(ShardedCluster, TimelineAndTotalsAreInternallyConsistent)
{
    const std::vector<MachineClass> classes = {
        uniformClass("m", 6, 12, 2)};
    ShardedCluster cluster(classes, {400}, 4);
    const StreamResult r =
        cluster.runStream({0.90, 0.60}, testChurn(), 25);

    ASSERT_EQ(r.timeline.size(), 25u);
    StreamEpochStats sum;
    for (const auto &row : r.timeline) {
        sum.failures += row.failures;
        sum.recoveries += row.recoveries;
        sum.departures += row.departures;
        sum.arrivals += row.arrivals;
        sum.placed += row.placed;
        sum.rejected += row.rejected;
        sum.evictions += row.evictions;
        sum.replacements += row.replacements;
        sum.lost += row.lost;
        sum.fillerEvicted += row.fillerEvicted;
        sum.events += row.events;
    }
    EXPECT_EQ(sum.failures, r.failures);
    EXPECT_EQ(sum.recoveries, r.recoveries);
    EXPECT_EQ(sum.departures, r.departures);
    EXPECT_EQ(sum.arrivals, r.arrivals);
    EXPECT_EQ(sum.placed, r.placed);
    EXPECT_EQ(sum.replacements, r.replacements);
    EXPECT_EQ(sum.rejected, r.rejected);
    EXPECT_EQ(sum.evictions, r.evictions);
    EXPECT_EQ(sum.lost, r.lost);
    EXPECT_EQ(sum.events, r.events);
    // fillerPlaced totals additionally include the bootstrap fill,
    // which happens before epoch 0.
    const auto &last = r.timeline.back();
    EXPECT_EQ(last.guaranteedInstances, r.guaranteedInstances);
    EXPECT_EQ(last.bestEffortInstances, r.bestEffortInstances);
    EXPECT_EQ(last.liveServers, r.liveServers);
    EXPECT_DOUBLE_EQ(last.utilization, r.utilization());
    EXPECT_DOUBLE_EQ(last.goodputUtilization, r.goodputUtilization());
}

} // namespace
} // namespace smite::scheduler
