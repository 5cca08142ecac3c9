/**
 * @file
 * Tests for deterministic fault injection and the resilient
 * measurement pipeline built on top of it: SMITE_FAULTS grammar,
 * keyed decision determinism, Lab retry and multi-trial
 * policies, graceful degradation of the training harness, scheduler
 * behaviour under server failures, and — critically — that a
 * fault-free run after a chaos run reproduces the baseline exactly.
 */

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/predictor.h"
#include "fault/fault.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "scheduler/cluster.h"
#include "workload/spec2006.h"

namespace smite {
namespace {

using core::Characterization;
using core::CoLocationMode;
using core::Lab;
using core::Predictor;
using core::PredictorKind;
using fault::FaultPlan;
using fault::MeasurementError;
using fault::SiteSpec;

/**
 * Every fault test starts and ends with a clean slate: no armed
 * sites, empty incident log, zeroed metrics. Without this, one test's
 * chaos leaks into the next's determinism assertions.
 */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { resetGlobals(); }
    void TearDown() override { resetGlobals(); }

    static void resetGlobals()
    {
        FaultPlan::global().reset();
        obs::IncidentLog::global().clearForTesting();
        obs::Registry::global().resetForTesting();
    }

    static std::vector<workload::WorkloadProfile> trainingSet()
    {
        return {workload::spec2006::byName("401.bzip2"),
                workload::spec2006::byName("429.mcf"),
                workload::spec2006::byName("453.povray"),
                workload::spec2006::byName("433.milc"),
                workload::spec2006::byName("470.lbm"),
                workload::spec2006::byName("456.hmmer")};
    }

    static Lab makeLab()
    {
        Lab lab(sim::MachineConfig::ivyBridge(), 2'000, 8'000);
        lab.setParallelism(1);
        return lab;
    }

    static std::uint64_t counter(const std::string &name)
    {
        return obs::Registry::global().counter(name).value();
    }
};

TEST_F(FaultTest, SpecStringArmsSites)
{
    FaultPlan &plan = FaultPlan::global();
    EXPECT_FALSE(plan.enabled());
    const int armed = plan.configure(
        "machine.jitter:p=0.5,sigma=0.1,seed=7;"
        "lab.measure:p=0.25;pool.delay:p=0.01,us=250");
    EXPECT_EQ(armed, 3);
    EXPECT_TRUE(plan.enabled());
    EXPECT_TRUE(plan.armed("machine.jitter"));
    EXPECT_TRUE(plan.armed("lab.measure"));
    EXPECT_TRUE(plan.armed("pool.delay"));
    EXPECT_FALSE(plan.armed("disk.corrupt"));

    const SiteSpec jitter = plan.spec("machine.jitter");
    EXPECT_DOUBLE_EQ(jitter.probability, 0.5);
    EXPECT_DOUBLE_EQ(jitter.sigma, 0.1);
    EXPECT_EQ(jitter.seed, 7u);
    EXPECT_DOUBLE_EQ(plan.spec("lab.measure").probability, 0.25);
    EXPECT_DOUBLE_EQ(plan.spec("pool.delay").micros, 250.0);

    plan.reset();
    EXPECT_FALSE(plan.enabled());
    EXPECT_FALSE(plan.armed("machine.jitter"));
}

TEST_F(FaultTest, MalformedClausesAreSkippedNotFatal)
{
    FaultPlan &plan = FaultPlan::global();
    // Bad probability, unknown key, and an empty clause: each is
    // skipped with a warning; the valid clause still arms. So are
    // values out of range — a seed with a sign, an exponent, a
    // fraction or past 64 bits, a probability outside [0, 1] or NaN,
    // a negative or infinite width or delay — and the retired `nth`
    // key.
    const int armed = plan.configure(
        "lab.measure:p=banana;;bogus:q=1;server.fail:p=0.25;"
        "lab.measure:p=0.5,seed=-1;lab.measure:p=0.5,seed=1e30;"
        "lab.measure:p=0.5,seed=2.5;"
        "lab.measure:p=0.5,seed=18446744073709551616;"
        "lab.measure:p=nan;lab.measure:p=1.5;lab.measure:p=-0.1;"
        "machine.jitter:p=1,sigma=-0.1;machine.jitter:p=1,sigma=inf;"
        "pool.delay:p=1,us=inf;pool.delay:p=1,us=-5;"
        "pool.delay:p=1,us=1e300;lab.measure:nth=3");
    EXPECT_EQ(armed, 1);
    EXPECT_TRUE(plan.armed("server.fail"));
    EXPECT_FALSE(plan.armed("lab.measure"));
    EXPECT_FALSE(plan.armed("machine.jitter"));
    EXPECT_FALSE(plan.armed("pool.delay"));

    // The edges of each range still arm.
    EXPECT_EQ(plan.configure("lab.measure:p=0,seed=18446744073709551615;"
                             "machine.jitter:p=1,sigma=0;"
                             "pool.delay:p=1,us=1e15"),
              3);
    EXPECT_EQ(plan.spec("lab.measure").seed, 18446744073709551615u);
}

TEST_F(FaultTest, KeyedDecisionsAreDeterministicAndRateAccurate)
{
    FaultPlan &plan = FaultPlan::global();
    plan.arm("lab.measure", SiteSpec{.probability = 0.3, .seed = 99});

    int fired = 0;
    std::vector<bool> first;
    for (int i = 0; i < 2000; ++i) {
        const bool f =
            plan.shouldInject("lab.measure", "key" + std::to_string(i));
        first.push_back(f);
        fired += f ? 1 : 0;
    }
    // Same keys, any order → same outcomes.
    for (int i = 1999; i >= 0; --i) {
        EXPECT_EQ(plan.shouldInject("lab.measure",
                                    "key" + std::to_string(i)),
                  first[static_cast<std::size_t>(i)]);
    }
    // Law of large numbers: the empirical rate is near p.
    EXPECT_NEAR(fired / 2000.0, 0.3, 0.05);
    EXPECT_EQ(counter("fault.lab.measure.checks"), 4000u);
    EXPECT_EQ(counter("fault.lab.measure.injected"),
              static_cast<std::uint64_t>(2 * fired));
}

TEST_F(FaultTest, GaussianDrawsMatchSigma)
{
    FaultPlan &plan = FaultPlan::global();
    plan.arm("machine.jitter",
             SiteSpec{.probability = 1.0, .seed = 13, .sigma = 0.05});
    double sum = 0.0, sq = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const double eps =
            plan.gaussian("machine.jitter", "k" + std::to_string(i));
        sum += eps;
        sq += eps * eps;
    }
    const double mean = sum / n;
    const double stddev = std::sqrt(sq / n - mean * mean);
    EXPECT_NEAR(mean, 0.0, 0.005);
    EXPECT_NEAR(stddev, 0.05, 0.01);
    // Keyed draws replay exactly.
    EXPECT_EQ(plan.gaussian("machine.jitter", "k0"),
              plan.gaussian("machine.jitter", "k0"));

    // A seed-0 site seeds itself from its name, so these pin both
    // hash paths (site seed and key) to their recorded values.
    plan.arm("machine.jitter", SiteSpec{.probability = 1.0, .sigma = 1.0});
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  plan.gaussian("machine.jitter", "k|1")),
              0x3fe619b6f13a2c99ull);
    plan.arm("lab.measure", SiteSpec{.probability = 0.5});
    std::uint64_t mask = 0;
    for (int i = 0; i < 32; ++i) {
        if (plan.shouldInject("lab.measure", "key" + std::to_string(i)))
            mask |= std::uint64_t{1} << i;
    }
    EXPECT_EQ(mask, 0x3336ad59u);
}

TEST_F(FaultTest, LabRetriesTransientFaultsToTheBaselineValue)
{
    const auto &a = workload::spec2006::byName("453.povray");
    const auto &b = workload::spec2006::byName("429.mcf");
    double base_a = 0.0, base_b = 0.0;
    {
        Lab lab = makeLab();
        base_a = lab.soloIpc(a);
        base_b = lab.soloIpc(b);
    }
    resetGlobals();

    // Under this keyed rule solo(a) passes, solo(b)'s first attempt
    // fails and its retry passes. The retried value is byte-identical
    // to the fault-free baseline.
    FaultPlan::global().arm("lab.measure",
                            SiteSpec{.probability = 0.5, .seed = 12});
    Lab lab = makeLab();
    EXPECT_EQ(lab.soloIpc(a), base_a);
    EXPECT_EQ(lab.soloIpc(b), base_b);
    EXPECT_EQ(counter("fault.lab.measure.injected"), 1u);
    EXPECT_EQ(counter("lab.retries"), 1u);
    EXPECT_EQ(counter("lab.failures"), 0u);
}

TEST_F(FaultTest, LabGivesUpAfterRetryBudgetAndRecordsIncident)
{
    // Probability 1: every attempt of every measurement fails.
    FaultPlan::global().arm("lab.measure",
                            SiteSpec{.probability = 1.0});
    Lab lab = makeLab();
    const auto &a = workload::spec2006::byName("429.mcf");
    EXPECT_THROW(lab.soloIpc(a), MeasurementError);
    EXPECT_GE(counter("lab.retries"), 2u);  // attempts 1 and 2 retried
    EXPECT_EQ(counter("lab.failures"), 1u);
    EXPECT_GE(obs::IncidentLog::global().count(), 1u);
}

TEST_F(FaultTest, MedianOfTrialsSuppressesJitter)
{
    const auto &a = workload::spec2006::byName("470.lbm");
    double baseline = 0.0;
    {
        Lab lab = makeLab();
        baseline = lab.soloIpc(a);
    }
    resetGlobals();

    FaultPlan::global().arm(
        "machine.jitter",
        SiteSpec{.probability = 1.0, .seed = 3, .sigma = 0.2});
    Lab lab = makeLab();
    lab.setTrials(5);
    const double noisy = lab.soloIpc(a);
    EXPECT_TRUE(std::isfinite(noisy));
    // The robust median of five jittered trials lands near the truth
    // even with sigma = 0.2.
    EXPECT_NEAR(noisy, baseline, 0.3 * baseline);
    EXPECT_GE(counter("lab.trials"), 5u);

    // Disarm → trials collapse back to the exact baseline.
    resetGlobals();
    Lab clean = makeLab();
    clean.setTrials(5);
    EXPECT_EQ(clean.soloIpc(a), baseline);
}

TEST_F(FaultTest, TrainSmiteSurvivesChaosAndReproducesCleanBaseline)
{
    const auto train = trainingSet();
    const auto mode = CoLocationMode::kSmt;
    // Corpus signatures 0 and 1: 401.bzip2 next to 429.mcf.
    const auto predictFirstPair = [](const Predictor &model,
                                     const core::TrainingCorpus &corpus) {
        return model.predictDegradation(corpus.signatures[0],
                                        corpus.signatures[1]);
    };

    // Fault-free baseline.
    std::vector<double> base_coeffs;
    double base_pred = 0.0;
    {
        Lab lab = makeLab();
        const core::TrainingCorpus corpus =
            core::trainingCorpus(lab, train, mode);
        const Predictor model =
            Predictor::train(PredictorKind::kSmite, corpus.samples);
        base_coeffs = model.coefficients();
        base_pred = predictFirstPair(model, corpus);
    }
    resetGlobals();

    // Chaos: with retries disabled every measurement fails with
    // probability p. One lost characterization already voids ten of
    // the thirty ordered samples, so p is kept low enough that the
    // fit still has more samples than sharing dimensions — but high
    // enough (given this seed) that some samples do drop: 453.povray's
    // characterization (ten samples) and the 401.bzip2|433.milc pair
    // (both directions).
    FaultPlan::global().arm("lab.measure",
                            SiteSpec{.probability = 0.07, .seed = 13});
    {
        Lab lab = makeLab();
        lab.setMaxAttempts(1);  // no retries: faults become drops
        const Predictor model = Predictor::train(
            PredictorKind::kSmite,
            core::trainingCorpus(lab, train, mode).samples);
        // Training degraded but completed: finite coefficients.
        for (const double c : model.coefficients())
            EXPECT_TRUE(std::isfinite(c));
        EXPECT_EQ(counter("lab.dropped_samples"), 12u);
        EXPECT_GT(obs::IncidentLog::global().count(), 0u);
    }

    // Determinism: disarm everything, rerun → byte-identical model.
    resetGlobals();
    {
        Lab lab = makeLab();
        const core::TrainingCorpus corpus =
            core::trainingCorpus(lab, train, mode);
        const Predictor model =
            Predictor::train(PredictorKind::kSmite, corpus.samples);
        EXPECT_EQ(model.coefficients(), base_coeffs);
        EXPECT_EQ(predictFirstPair(model, corpus), base_pred);
        EXPECT_EQ(counter("lab.dropped_samples"), 0u);
        EXPECT_EQ(obs::IncidentLog::global().count(), 0u);
    }
}

TEST_F(FaultTest, CharacterizeAllMarksFailedEntriesInvalid)
{
    FaultPlan::global().arm("lab.measure",
                            SiteSpec{.probability = 0.6, .seed = 5});
    Lab lab = makeLab();
    lab.setMaxAttempts(1);
    const auto profiles = trainingSet();
    const std::vector<Characterization> chars =
        lab.characterizeAll(profiles, CoLocationMode::kSmt);
    ASSERT_EQ(chars.size(), profiles.size());
    int invalid = 0;
    for (const Characterization &c : chars)
        invalid += c.valid ? 0 : 1;
    // With p=0.6 and no retries at least one profile must have lost
    // a measurement; and the batch call itself never threw.
    EXPECT_GT(invalid, 0);
    EXPECT_LT(invalid, static_cast<int>(profiles.size()) + 1);
}

TEST_F(FaultTest, SignaturesCountAndLogEachFailedMeasurementOnce)
{
    // No retries: every fired check is a failed measurement. Each
    // one must be counted and logged once, and void exactly one
    // signature; asking a measurement twice would count its
    // (keyed, so identical) failure twice.
    FaultPlan::global().arm("lab.measure",
                            SiteSpec{.probability = 0.3, .seed = 5});
    Lab lab = makeLab();
    lab.setMaxAttempts(1);
    const auto sigs =
        core::signaturesOf(lab, trainingSet(), CoLocationMode::kSmt);
    std::uint64_t invalid = 0;
    for (const core::WorkloadSignature &sig : sigs)
        invalid += sig.valid ? 0 : 1;
    EXPECT_GT(invalid, 0u);
    EXPECT_LT(invalid, sigs.size());
    EXPECT_EQ(counter("lab.failures"), invalid);
    EXPECT_EQ(counter("fault.lab.measure.injected"), invalid);
    const std::vector<std::string> incidents =
        obs::IncidentLog::global().snapshot();
    EXPECT_EQ(incidents.size(), invalid);
    EXPECT_EQ(std::set<std::string>(incidents.begin(), incidents.end())
                  .size(),
              incidents.size());
}

TEST_F(FaultTest, MachineJitterPerturbsResultsOnlyWhileArmed)
{
    const auto &a = workload::spec2006::byName("433.milc");
    double baseline = 0.0;
    {
        Lab lab = makeLab();
        baseline = lab.soloIpc(a);
    }
    resetGlobals();

    FaultPlan::global().arm(
        "machine.jitter",
        SiteSpec{.probability = 1.0, .seed = 11, .sigma = 0.1});
    {
        Lab lab = makeLab();
        const double jittered = lab.soloIpc(a);
        EXPECT_NE(jittered, baseline);
        EXPECT_TRUE(std::isfinite(jittered));
        EXPECT_GT(counter("fault.machine.jitter.injected"), 0u);
    }

    resetGlobals();
    Lab clean = makeLab();
    EXPECT_EQ(clean.soloIpc(a), baseline);
}

TEST_F(FaultTest, MeasurementScopesNest)
{
    using fault::MeasurementScope;
    EXPECT_EQ(MeasurementScope::current(), "");
    {
        const MeasurementScope outer("pair/a1");
        EXPECT_EQ(MeasurementScope::current(), "pair/a1");
        {
            const MeasurementScope inner("solo/a2");
            EXPECT_EQ(MeasurementScope::current(), "solo/a2");
        }
        EXPECT_EQ(MeasurementScope::current(), "pair/a1");
    }
    EXPECT_EQ(MeasurementScope::current(), "");
}

TEST_F(FaultTest, JitterChaosReproducesAcrossThreadCounts)
{
    // Keyed jitter: every draw is a function of the measurement
    // attempt, the run and the placement — never of which thread got
    // there first, or of what an earlier Lab drew.
    FaultPlan::global().arm(
        "machine.jitter",
        SiteSpec{.probability = 1.0, .seed = 7, .sigma = 0.05});
    const std::vector<workload::WorkloadProfile> profiles = {
        workload::spec2006::byName("401.bzip2"),
        workload::spec2006::byName("429.mcf"),
        workload::spec2006::byName("453.povray"),
        workload::spec2006::byName("470.lbm")};
    const auto mode = CoLocationMode::kSmt;

    struct Outcome {
        std::vector<Characterization> chars;
        std::vector<core::PmuProfile> pmu;
        std::vector<std::vector<double>> pairs;
    };
    const auto measureAll = [&](int threads) {
        Lab lab(sim::MachineConfig::ivyBridge(), 2'000, 8'000);
        lab.setParallelism(threads);
        return Outcome{lab.characterizeAll(profiles, mode),
                       lab.pmuProfileAll(profiles),
                       lab.measureAllPairs(profiles, mode)};
    };
    const Outcome serial = measureAll(1);
    const Outcome pooled = measureAll(4);

    ASSERT_EQ(pooled.chars.size(), serial.chars.size());
    for (std::size_t i = 0; i < serial.chars.size(); ++i) {
        SCOPED_TRACE(profiles[i].name);
        EXPECT_EQ(pooled.chars[i].sensitivity, serial.chars[i].sensitivity);
        EXPECT_EQ(pooled.chars[i].contentiousness,
                  serial.chars[i].contentiousness);
    }
    EXPECT_EQ(pooled.pmu, serial.pmu);
    EXPECT_EQ(pooled.pairs, serial.pairs);
    EXPECT_GT(counter("fault.machine.jitter.injected"), 0u);

    // A repeated ask gets the same draws.
    Lab lab(sim::MachineConfig::ivyBridge(), 2'000, 8'000);
    EXPECT_EQ(lab.soloIpc(profiles[0]), lab.soloIpc(profiles[0]));
    EXPECT_EQ(lab.pairDegradation(profiles[1], profiles[2], mode),
              lab.pairDegradation(profiles[1], profiles[2], mode));
    EXPECT_EQ(lab.pairDegradation(profiles[1], profiles[2], mode),
              serial.pairs[1][2]);
}

/** A pairing whose QoS falls linearly with instance count. */
scheduler::Pairing
linearPairing(double actual, double predicted,
              const std::string &latency = "svc",
              const std::string &batch = "batch")
{
    scheduler::Pairing p;
    p.latencyApp = latency;
    p.batchApp = batch;
    for (int k = 1; k <= 6; ++k) {
        scheduler::CoLocationOption option;
        option.actualQos = 1.0 - actual * k;
        option.predictedQos = 1.0 - predicted * k;
        p.byInstances.push_back(option);
    }
    return p;
}

TEST_F(FaultTest, FailurePolicyWithoutFaultsMatchesPredictedPolicy)
{
    const scheduler::Cluster cluster({linearPairing(0.02, 0.02)},
                                     {"svc"}, 60);
    const auto plain = cluster.runPredictedPolicy(0.90);
    const auto epochs = cluster.runPredictedPolicyWithFailures(0.90, 5);
    EXPECT_EQ(epochs.totalInstances, plain.totalInstances);
    EXPECT_EQ(epochs.coLocatedServers, plain.coLocatedServers);
    EXPECT_EQ(epochs.violatedServers, plain.violatedServers);
    EXPECT_EQ(epochs.downServers, 0);
    EXPECT_EQ(epochs.utilization(), plain.utilization());
    EXPECT_EQ(counter("scheduler.server_failures"), 0u);
    EXPECT_EQ(counter("scheduler.evictions"), 0u);
}

TEST_F(FaultTest, ServerFailuresEvictAndReplaceInstances)
{
    FaultPlan::global().arm("server.fail",
                            SiteSpec{.probability = 0.2, .seed = 17});
    // Predicted policy admits 5 per server at target 0.90 with 2%
    // slope. Survivors have a spare context (maxInstances = 6), but
    // the model predicts QoS 0.88 < 0.90 at six instances, so the
    // policy-aware re-placement refuses it: every eviction in this
    // homogeneous cluster is lost capacity, not a predicted
    // violation.
    const scheduler::Cluster cluster({linearPairing(0.02, 0.02)},
                                     {"svc"}, 60);
    const auto result = cluster.runPredictedPolicyWithFailures(0.90, 4);
    EXPECT_GT(counter("scheduler.server_failures"), 0u);
    EXPECT_GT(counter("scheduler.evictions"), 0u);
    EXPECT_GT(counter("scheduler.recoveries"), 0u);
    // Instance conservation: every evicted instance is either
    // re-placed or counted lost, never silently dropped.
    EXPECT_EQ(counter("scheduler.replacements") +
                  counter("scheduler.lost_instances"),
              counter("scheduler.evictions"));
    // Policy-aware placement: failure churn must not crowd servers
    // past the model's admissible count, so no server exceeds five
    // instances and none violates the (accurately predicted) target.
    EXPECT_EQ(result.violatedServers, 0);
    EXPECT_LE(result.totalInstances, 5.0 * cluster.servers());
    EXPECT_GE(result.totalInstances, 0.0);
    // The static run shares the online loop but learns nothing: no
    // observations, and no online epochs counted.
    EXPECT_EQ(counter("scheduler.online.epochs"), 0u);
    EXPECT_EQ(counter("scheduler.online.observations"), 0u);
    EXPECT_THROW(cluster.runPredictedPolicyWithFailures(0.90, 0),
                 std::invalid_argument);
}

TEST_F(FaultTest, EpochLoopConservesInstancesUnderPinnedSeed)
{
    // The static policy packs every server to its model-admissible
    // maximum, so policy-aware re-placement finds no admissible
    // headroom after a failure: every eviction must be counted lost
    // (the pre-fix code instead crowded survivors to the capacity
    // bound, which the model predicts violating).
    FaultPlan::global().arm("server.fail",
                            SiteSpec{.probability = 0.25, .seed = 29});
    const scheduler::Cluster cluster({linearPairing(0.02, 0.02)},
                                     {"svc"}, 40);
    const auto result = cluster.runPredictedPolicyWithFailures(0.90, 6);
    EXPECT_GT(counter("scheduler.evictions"), 0u);
    EXPECT_EQ(counter("scheduler.replacements"), 0u);
    EXPECT_EQ(counter("scheduler.lost_instances"),
              counter("scheduler.evictions"));
    EXPECT_EQ(result.violatedServers, 0);
}

TEST_F(FaultTest, RecoveryRefillsDownedServersNextEpoch)
{
    // Every server fails in every epoch (p=1): epoch N's downed
    // servers all recover at epoch N+1's start, so recoveries track
    // failures one epoch behind.
    FaultPlan::global().arm("server.fail",
                            SiteSpec{.probability = 1.0, .seed = 7});
    const scheduler::Cluster cluster({linearPairing(0.02, 0.02)},
                                     {"svc"}, 20);
    const auto result = cluster.runPredictedPolicyWithFailures(0.90, 3);
    EXPECT_EQ(counter("scheduler.server_failures"), 60u);
    EXPECT_EQ(counter("scheduler.recoveries"), 40u);
    // Final epoch: everything is down, nothing is placed.
    EXPECT_EQ(result.downServers, cluster.servers());
    EXPECT_EQ(result.totalInstances, 0.0);
    EXPECT_NEAR(result.utilization(), 0.0, 1e-12);
}

TEST_F(FaultTest, RandomPolicyRecordsIncidentOnUnreachableTarget)
{
    const scheduler::Cluster cluster({linearPairing(0.02, 0.02)},
                                     {"svc"}, 10);
    // 100 instances cannot fit on 10 servers x 6 contexts: the nudge
    // loop exhausts its guard and must say so instead of silently
    // returning a mismatched total.
    const auto result = cluster.runRandomPolicy(0.90, 100.0);
    EXPECT_LT(result.totalInstances, 100.0);
    EXPECT_GE(obs::IncidentLog::global().count(), 1u);
}

/** Order-sensitive fold of a run's numbers into one 64-bit digest. */
struct TrajectoryDigest {
    std::uint64_t h = 0xcbf29ce484222325ull;

    void add(std::uint64_t v)
    {
        h = (h ^ v) * 0x100000001b3ull;
        h ^= h >> 29;
    }
    void add(int v) { add(static_cast<std::uint64_t>(std::int64_t{v})); }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    void add(const scheduler::PolicyResult &r)
    {
        add(r.totalInstances);
        add(r.compliantInstances);
        add(r.coLocatedServers);
        add(r.violatedServers);
        add(r.downServers);
        add(r.maxViolation);
    }

    void add(const scheduler::EpochStats &e)
    {
        for (const int v :
             {e.epoch, e.failures, e.recoveries, e.failureEvictions,
              e.replacements, e.lostInstances, e.observedViolations,
              e.qosEvictions, e.probes, e.liveServers, e.loadSpikes,
              e.fillersShed, e.loadViolations, e.fairnessEvictions})
            add(v);
        for (const double v :
             {e.totalInstances, e.utilization, e.fillerInstances,
              e.maxSlowdown, e.slowdownSpread})
            add(v);
    }
};

TEST_F(FaultTest, EpochLoopTrajectoriesArePinned)
{
    // The static failure loop and three online runs under pinned
    // churn, observation noise and load spikes, each folded epoch by
    // epoch into one digest. Any change to a step, its order or a
    // fault key moves a digest.
    FaultPlan &faults = FaultPlan::global();
    faults.arm("server.fail", SiteSpec{.probability = 0.1, .seed = 41});
    faults.arm("scheduler.observe",
               SiteSpec{.probability = 0.5, .seed = 43, .sigma = 0.02});
    faults.arm("des.arrival_burst",
               SiteSpec{.probability = 0.3, .seed = 47, .sigma = 0.5});
    // App "a" draws an optimistic or a pessimistic batch candidate;
    // app "b" degrades steeply.
    const scheduler::Cluster cluster(
        {linearPairing(0.03, 0.02, "a", "x"),
         linearPairing(0.01, 0.03, "a", "y"),
         linearPairing(0.05, 0.04, "b", "x")},
        {"a", "b"}, 30);

    TrajectoryDigest fixed;
    fixed.add(cluster.runPredictedPolicyWithFailures(0.90, 10));
    EXPECT_EQ(fixed.h, 0x6559367bf84d0569ull);

    const auto online = [&](const scheduler::OnlineConfig &config) {
        const auto run = cluster.runOnline(0.90, config);
        TrajectoryDigest d;
        for (const scheduler::EpochStats &e : run.timeline)
            d.add(e);
        d.add(run.final);
        d.add(run.final.maxSlowdown);
        d.add(run.final.slowdownSpread);
        return d.h;
    };
    EXPECT_EQ(online({.epochs = 10, .probeBudget = 6}),
              0xaa26a7ea84fbd256ull);
    EXPECT_EQ(online({.epochs = 10,
                      .probeBudget = 6,
                      .objective = scheduler::Objective::kFairness,
                      .spreadTolerance = 0.05}),
              0xd280adb6e3eca6f8ull);
    scheduler::OnlineConfig load{.epochs = 10, .probeBudget = 6};
    load.loadAware = {
        .enabled = true,
        .baseQps = 400.0,
        .spikeFactor = 2.0,
        .kneeByPairing = {{1300, 1200, 1100, 1000, 900, 800, 700},
                          {1100, 950, 800, 650, 500, 350, 200},
                          {1500, 1400, 1300, 1200, 1100, 1000, 900}}};
    EXPECT_EQ(online(load), 0x737621563f6491d2ull);

    // Every mechanism the digests pin fired in at least one run.
    for (const char *name :
         {"scheduler.replacements", "scheduler.lost_instances",
          "scheduler.online.qos_evictions", "scheduler.online.probes",
          "scheduler.online.fairness_evictions",
          "scheduler.online.load_spikes",
          "scheduler.online.fillers_shed"})
        EXPECT_GT(counter(name), 0u) << name;
}

TEST_F(FaultTest, OnlinePolicyIsDeterministicUnderPinnedSeeds)
{
    FaultPlan::global().arm("server.fail",
                            SiteSpec{.probability = 0.15, .seed = 17});
    FaultPlan::global().arm(
        "scheduler.observe",
        SiteSpec{.probability = 1.0, .seed = 23, .sigma = 0.05});
    const scheduler::Cluster cluster({linearPairing(0.03, 0.02)},
                                     {"svc"}, 50);
    const auto a = cluster.runOnline(0.90, {.epochs = 8});
    const auto b = cluster.runOnline(0.90, {.epochs = 8});
    EXPECT_EQ(a.final.totalInstances, b.final.totalInstances);
    EXPECT_EQ(a.final.violatedServers, b.final.violatedServers);
    EXPECT_EQ(a.final.downServers, b.final.downServers);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].failures, b.timeline[i].failures);
        EXPECT_EQ(a.timeline[i].qosEvictions,
                  b.timeline[i].qosEvictions);
        EXPECT_EQ(a.timeline[i].probes, b.timeline[i].probes);
        EXPECT_EQ(a.timeline[i].totalInstances,
                  b.timeline[i].totalInstances);
        EXPECT_EQ(a.timeline[i].utilization,
                  b.timeline[i].utilization);
    }
    EXPECT_GT(counter("fault.scheduler.observe.injected"), 0u);
}

TEST_F(FaultTest, OnlinePolicyIntegratesFailureFlow)
{
    FaultPlan::global().arm("server.fail",
                            SiteSpec{.probability = 0.2, .seed = 11});
    // Pessimistic model: probed-up servers hold observed headroom the
    // model denies, so churn re-placement has somewhere to go and
    // both sides of the conservation invariant are exercised.
    const scheduler::Cluster cluster({linearPairing(0.01, 0.05)},
                                     {"svc"}, 40);
    const auto result = cluster.runOnline(0.90, {.epochs = 6});
    EXPECT_GT(counter("scheduler.server_failures"), 0u);
    EXPECT_GT(counter("scheduler.recoveries"), 0u);
    EXPECT_GT(counter("scheduler.online.epochs"), 0u);
    EXPECT_GT(counter("scheduler.online.observations"), 0u);
    // Conservation, from the timeline: every failure-evicted
    // instance is re-placed or lost.
    int evicted = 0, replaced = 0, lost_n = 0;
    for (const auto &e : result.timeline) {
        evicted += e.failureEvictions;
        replaced += e.replacements;
        lost_n += e.lostInstances;
    }
    EXPECT_GT(evicted, 0);
    EXPECT_GT(replaced, 0);
    EXPECT_EQ(evicted, replaced + lost_n);
    EXPECT_EQ(counter("scheduler.evictions"),
              static_cast<std::uint64_t>(evicted));
}

} // namespace
} // namespace smite
