/**
 * @file
 * Tests for the cluster scale-out model and co-location policies
 * using hand-built pairing tables (no simulation needed).
 */

#include <gtest/gtest.h>

#include "scheduler/cluster.h"

namespace smite::scheduler {
namespace {

/** A pairing whose QoS falls linearly with instance count. */
Pairing
linearPairing(const std::string &latency, const std::string &batch,
              double actual_per_instance, double predicted_per_instance,
              int max_instances = 6)
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

Cluster
simpleCluster(double actual_per_instance, double predicted_per_instance,
              int servers = 100)
{
    return Cluster({linearPairing("svc", "batch", actual_per_instance,
                                  predicted_per_instance)},
                   {"svc"}, servers);
}

TEST(Cluster, RejectsEmptyConfiguration)
{
    EXPECT_THROW(Cluster({}, {"svc"}, 10), std::invalid_argument);
    EXPECT_THROW(Cluster({linearPairing("svc", "b", 0.02, 0.02)},
                         {"other"}, 10),
                 std::invalid_argument);
}

TEST(Cluster, PerfectPredictionMatchesOracle)
{
    const Cluster cluster = simpleCluster(0.02, 0.02);
    const auto smite = cluster.runPredictedPolicy(0.90);
    const auto oracle = cluster.runOraclePolicy(0.90);
    EXPECT_EQ(smite.totalInstances, oracle.totalInstances);
    EXPECT_EQ(smite.violatedServers, 0);
    EXPECT_EQ(oracle.violatedServers, 0);
    // QoS 0.90 with 2% per instance admits exactly 5 instances.
    EXPECT_NEAR(smite.meanInstances(), 5.0, 1e-9);
}

TEST(Cluster, OracleNeverViolates)
{
    // Badly misleading prediction does not matter for Oracle.
    const Cluster cluster = simpleCluster(0.05, 0.01);
    const auto oracle = cluster.runOraclePolicy(0.90);
    EXPECT_EQ(oracle.violatedServers, 0);
}

TEST(Cluster, OptimisticPredictionCausesViolations)
{
    // Model thinks 1%/instance, reality is 5%/instance.
    const Cluster cluster = simpleCluster(0.05, 0.01);
    const auto smite = cluster.runPredictedPolicy(0.90);
    // Policy admits 6 instances everywhere; actual QoS = 0.70 < 0.90.
    EXPECT_EQ(smite.violatedServers, smite.coLocatedServers);
    EXPECT_GT(smite.maxViolation, 0.2);
}

TEST(Cluster, PessimisticPredictionWastesUtilization)
{
    const Cluster cluster = simpleCluster(0.01, 0.05);
    const auto smite = cluster.runPredictedPolicy(0.90);
    const auto oracle = cluster.runOraclePolicy(0.90);
    EXPECT_LT(smite.utilization(), oracle.utilization());
    EXPECT_EQ(smite.violatedServers, 0);
}

TEST(Cluster, UtilizationAccounting)
{
    const Cluster cluster = simpleCluster(0.02, 0.02, 50);
    const auto result = cluster.runPredictedPolicy(0.90);
    // Baseline 6/12; with 5 instances per server: 11/12.
    EXPECT_NEAR(result.utilization(), 11.0 / 12.0, 1e-9);
    EXPECT_NEAR(result.utilizationImprovement(),
                (11.0 / 12.0 - 0.5) / 0.5, 1e-9);
}

TEST(Cluster, StricterTargetsAdmitFewerInstances)
{
    const Cluster cluster = simpleCluster(0.03, 0.03);
    const auto strict = cluster.runPredictedPolicy(0.95);
    const auto loose = cluster.runPredictedPolicy(0.85);
    EXPECT_LT(strict.meanInstances(), loose.meanInstances());
}

TEST(Cluster, RandomPolicyMatchesUtilizationTarget)
{
    const Cluster cluster = simpleCluster(0.02, 0.02, 500);
    const auto smite = cluster.runPredictedPolicy(0.90);
    const auto random =
        cluster.runRandomPolicy(0.90, smite.totalInstances);
    EXPECT_NEAR(random.totalInstances, smite.totalInstances, 1.0);
}

TEST(Cluster, RandomPolicyViolatesMoreThanInformedPolicy)
{
    // Reality: 3%/instance. A 0.94 target admits exactly 2.
    const Cluster cluster = simpleCluster(0.03, 0.03, 2000);
    const auto smite = cluster.runPredictedPolicy(0.94);
    const auto random =
        cluster.runRandomPolicy(0.94, smite.totalInstances);
    EXPECT_EQ(smite.violatedServers, 0);
    EXPECT_GT(random.violationRate(), 0.2);
}

TEST(Cluster, MultipleLatencyAppsPartitionServers)
{
    std::vector<Pairing> pairings = {
        linearPairing("a", "x", 0.02, 0.02),
        linearPairing("b", "x", 0.10, 0.10),
    };
    const Cluster cluster(pairings, {"a", "b"}, 100);
    EXPECT_EQ(cluster.servers(), 200);
    const auto result = cluster.runPredictedPolicy(0.90);
    // App a admits 5 per server, app b admits 1: mean 3.
    EXPECT_NEAR(result.meanInstances(), 3.0, 1e-9);
}

TEST(Cluster, RaggedTablesRejected)
{
    Pairing bad = linearPairing("svc", "b", 0.02, 0.02, 3);
    EXPECT_THROW(Cluster({linearPairing("svc", "a", 0.02, 0.02, 6),
                          bad},
                         {"svc"}, 10),
                 std::invalid_argument);
}

TEST(Cluster, RejectsTablesLongerThanSpareContexts)
{
    // Six latency threads leave six spare contexts: a seventh table
    // entry would let a policy place a seventh instance and push
    // utilization past 1.
    const Pairing seven = linearPairing("svc", "a", 0.01, 0.01, 7);
    EXPECT_THROW(Cluster({seven}, {"svc"}, 10), std::invalid_argument);
}

TEST(PolicyResult, ViolationRateHandlesNoCoLocations)
{
    PolicyResult r;
    EXPECT_EQ(r.violationRate(), 0.0);
    EXPECT_EQ(r.meanInstances(), 0.0);
}

TEST(PolicyResult, DownServersAreNotCountedBusy)
{
    PolicyResult r;
    r.servers = 100;
    r.totalInstances = 0;
    // All servers up: the half-loaded baseline.
    EXPECT_NEAR(r.utilization(), 0.5, 1e-12);
    // Ten servers down run no latency threads.
    r.downServers = 10;
    EXPECT_NEAR(r.utilization(), 90.0 * 6 / (100.0 * 12), 1e-12);
}

TEST(PolicyResult, GoodputExcludesViolatingInstances)
{
    PolicyResult r;
    r.servers = 10;
    r.totalInstances = 30;
    r.compliantInstances = 12;
    EXPECT_NEAR(r.utilization(), (60.0 + 30) / 120, 1e-12);
    EXPECT_NEAR(r.goodputUtilization(), (60.0 + 12) / 120, 1e-12);
    EXPECT_LT(r.goodputImprovement(), r.utilizationImprovement());
}

TEST(Cluster, RandomPolicyRoundsMatchTargetInsteadOfTruncating)
{
    const Cluster cluster = simpleCluster(0.02, 0.02, 100);
    // 10.6 must round to 11 instances, not truncate to 10.
    const auto r = cluster.runRandomPolicy(0.90, 10.6);
    EXPECT_EQ(r.totalInstances, 11.0);
}

TEST(ClusterOnline, RejectsBadConfiguration)
{
    const Cluster cluster = simpleCluster(0.02, 0.02, 10);
    EXPECT_THROW(cluster.runOnline(0.90, {.epochs = 0}),
                 std::invalid_argument);
    EXPECT_THROW(cluster.runOnline(0.90, {.headroom = -0.1}),
                 std::invalid_argument);
}

TEST(ClusterOnline, StableUnderPerfectPrediction)
{
    // Accurate model, no churn, no observation slack: the online
    // policy has nothing to react to and must keep the static
    // placement in every epoch.
    const Cluster cluster = simpleCluster(0.02, 0.02, 80);
    const auto fixed = cluster.runPredictedPolicy(0.90);
    const auto result = cluster.runOnline(0.90, {.epochs = 8});
    EXPECT_EQ(result.final.totalInstances, fixed.totalInstances);
    EXPECT_EQ(result.final.violatedServers, 0);
    ASSERT_EQ(result.timeline.size(), 8u);
    for (const EpochStats &e : result.timeline) {
        EXPECT_EQ(e.qosEvictions, 0);
        EXPECT_EQ(e.probes, 0);
        EXPECT_EQ(e.failures, 0);
        EXPECT_EQ(e.totalInstances, fixed.totalInstances);
    }
}

TEST(ClusterOnline, EvictsDownToOracleOnOptimisticPrediction)
{
    // Model claims 1%/instance, reality is 5%: the static policy
    // admits 6 everywhere and violates everywhere; the online policy
    // observes the violations, evicts one instance per epoch and
    // converges on the oracle's count (2 at target 0.90).
    const Cluster cluster = simpleCluster(0.05, 0.01, 50);
    const auto fixed = cluster.runPredictedPolicy(0.90);
    const auto oracle = cluster.runOraclePolicy(0.90);
    EXPECT_EQ(fixed.violatedServers, fixed.coLocatedServers);
    const auto result = cluster.runOnline(0.90, {.epochs = 12});
    EXPECT_EQ(result.final.totalInstances, oracle.totalInstances);
    EXPECT_EQ(result.final.violatedServers, 0);
    EXPECT_GT(result.timeline.front().qosEvictions, 0);
    EXPECT_EQ(result.timeline.back().qosEvictions, 0);
}

TEST(ClusterOnline, ProbesUpToOracleOnPessimisticPrediction)
{
    // Model claims 5%/instance, reality is 1%: the static policy
    // wastes contexts at 2 instances; probing discovers the oracle's
    // 6 (actual QoS 0.94 >= 0.90, and headroom 0.04 >= 0.02 keeps
    // the probe chain going).
    const Cluster cluster = simpleCluster(0.01, 0.05, 40);
    const auto fixed = cluster.runPredictedPolicy(0.90);
    const auto oracle = cluster.runOraclePolicy(0.90);
    EXPECT_LT(fixed.totalInstances, oracle.totalInstances);
    const auto result =
        cluster.runOnline(0.90, {.epochs = 12, .probeBudget = 40});
    EXPECT_EQ(result.final.totalInstances, oracle.totalInstances);
    EXPECT_EQ(result.final.violatedServers, 0);
    EXPECT_GT(result.timeline.front().probes, 0);
    // Converged: the last epochs neither probe nor evict.
    EXPECT_EQ(result.timeline.back().probes, 0);
    EXPECT_EQ(result.timeline.back().qosEvictions, 0);
}

TEST(ClusterOnline, ProbeBudgetBoundsPerEpochRisk)
{
    const Cluster cluster = simpleCluster(0.01, 0.05, 60);
    const auto result =
        cluster.runOnline(0.90, {.epochs = 6, .probeBudget = 7});
    for (const EpochStats &e : result.timeline)
        EXPECT_LE(e.probes, 7);
}

/** Two latency apps whose slowdown-per-instance rates differ: the
    raw material for a slowdown spread the fairness objective can act
    on (app "a" at 2%/instance, app "b" at 6%/instance). */
Cluster
unevenCluster(int servers = 100)
{
    return Cluster({linearPairing("a", "batch", 0.02, 0.02),
                    linearPairing("b", "batch", 0.06, 0.06)},
                   {"a", "b"}, servers);
}

TEST(ClusterOnline, RejectsNegativeSpreadTolerance)
{
    const Cluster cluster = simpleCluster(0.02, 0.02, 10);
    EXPECT_THROW(cluster.runOnline(0.90, {.spreadTolerance = -0.01}),
                 std::invalid_argument);
}

TEST(ClusterOnline, FairnessObjectiveBoundsMaxSlowdown)
{
    // Utilization objective: app "a" packs to QoS 0.90 (slowdown
    // 0.10), app "b" stops at one instance (slowdown 0.06) — spread
    // 0.04. The fairness objective with a 2-point tolerance trims
    // the "a" servers until their slowdown is within tolerance of
    // the best-off app, cutting max slowdown at a utilization cost.
    const Cluster cluster = unevenCluster();
    const auto u = cluster.runOnline(0.90, {.epochs = 12});
    const auto f =
        cluster.runOnline(0.90, {.epochs = 12,
                                 .objective = Objective::kFairness,
                                 .spreadTolerance = 0.02});

    EXPECT_LT(f.final.maxSlowdown, u.final.maxSlowdown);
    EXPECT_LE(f.final.slowdownSpread, 0.02 + 1e-12);
    EXPECT_LT(f.final.totalInstances, u.final.totalInstances);

    int util_trims = 0, fair_trims = 0;
    for (const EpochStats &e : u.timeline)
        util_trims += e.fairnessEvictions;
    for (const EpochStats &e : f.timeline)
        fair_trims += e.fairnessEvictions;
    EXPECT_EQ(util_trims, 0);
    EXPECT_GT(fair_trims, 0);

    // Slowdown telemetry is recorded under either objective.
    EXPECT_GT(u.timeline.back().maxSlowdown, 0.0);
    EXPECT_GT(u.timeline.back().slowdownSpread, 0.0);
}

TEST(ClusterOnline, UtilizationObjectiveMatchesDefault)
{
    // Selecting kUtilization explicitly is the pre-fairness
    // scheduler: identical placement, no trims.
    const Cluster cluster = unevenCluster(60);
    const auto ra = cluster.runOnline(0.90, {.epochs = 8});
    const auto rb = cluster.runOnline(
        0.90, {.epochs = 8, .objective = Objective::kUtilization});
    EXPECT_EQ(ra.final.totalInstances, rb.final.totalInstances);
    EXPECT_EQ(ra.final.violatedServers, rb.final.violatedServers);
    EXPECT_EQ(ra.final.maxSlowdown, rb.final.maxSlowdown);
    EXPECT_EQ(ra.final.slowdownSpread, rb.final.slowdownSpread);
}

} // namespace
} // namespace smite::scheduler
