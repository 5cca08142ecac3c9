/**
 * @file
 * Tests for the open-loop load subsystem: Poisson arrivals, the
 * multi-server DES, stepped sweeps, knee searches, the `des.*` chaos
 * sites, and the scheduler's load-aware admission.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/parallel.h"
#include "fault/fault.h"
#include "loadgen/knee.h"
#include "loadgen/loadgen.h"
#include "obs/metrics.h"
#include "scheduler/cluster.h"

namespace smite::loadgen {
namespace {

/** Mean rate over the first @p n arrivals of @p config. */
double
meanRate(const ArrivalConfig &config, std::size_t n)
{
    ArrivalStream stream(config);
    const auto times = stream.generate(n);
    return static_cast<double>(n) / times.back();
}

class FaultGuard
{
  public:
    FaultGuard() { fault::FaultPlan::global().reset(); }
    ~FaultGuard() { fault::FaultPlan::global().reset(); }
};

// --- Arrivals -------------------------------------------------------

TEST(Arrival, SameConfigReplaysByteIdentically)
{
    ArrivalConfig config;
    config.rate = 500.0;
    config.seed = 9;
    ArrivalStream a(config);
    ArrivalStream b(config);
    const auto ta = a.generate(2000);
    const auto tb = b.generate(2000);
    EXPECT_EQ(ta, tb); // exact, not approximate
}

TEST(Arrival, StreamsAreIndependent)
{
    ArrivalConfig config;
    config.seed = 9;
    ArrivalConfig other = config;
    other.stream = 1;
    EXPECT_NE(ArrivalStream(config).generate(100),
              ArrivalStream(other).generate(100));
}

TEST(Arrival, AllKindsPreserveTheMeanRate)
{
    ArrivalConfig config;
    config.rate = 1000.0;
    config.seed = 4;
    EXPECT_NEAR(meanRate(config, 200000), 1000.0, 20.0);
}

TEST(Arrival, RejectsNonRealizableConfigs)
{
    ArrivalConfig config;
    config.rate = 0.0;
    EXPECT_THROW(ArrivalStream{config}, std::invalid_argument);
    config.rate = -1.0;
    EXPECT_THROW(ArrivalStream{config}, std::invalid_argument);
}

// --- Open-loop DES ---------------------------------------------------

TEST(OpenLoop, LeastLoadedPoolCarriesWhatOneServerCannot)
{
    // 3,000/s overloads one 2,000/s server, but least-loaded
    // balancing across two of them serves everything at a
    // millisecond-scale tail (bench_latency_vs_load's two-server
    // sweep relies on it).
    ArrivalConfig arrival;
    arrival.rate = 3000.0;
    arrival.seed = 7;
    const auto arrivals = ArrivalStream(arrival).generate(40000);
    queueing::OpenLoopConfig config;
    config.serviceRates = {2000.0, 2000.0};
    config.seed = 7;
    const auto pool = queueing::simulateOpenLoop(arrivals, config);
    config.serviceRates = {2000.0};
    const auto single = queueing::simulateOpenLoop(arrivals, config);
    EXPECT_EQ(pool.completed, pool.offered);
    EXPECT_EQ(pool.dropped, 0u);
    EXPECT_LT(pool.percentile(0.99), 0.010);
    EXPECT_GT(single.percentile(0.99), 100.0 * pool.percentile(0.99));
}

TEST(OpenLoop, CommonRandomNumbersMakeDegradationMonotone)
{
    // Same seed, degraded service rate: every single response time
    // must be >= its counterpart (the knee search's foundation).
    ArrivalConfig arrival;
    arrival.rate = 1200.0;
    arrival.seed = 13;
    const auto arrivals = ArrivalStream(arrival).generate(20000);
    queueing::OpenLoopConfig fast;
    fast.serviceRates = {2000.0};
    fast.seed = 13;
    queueing::OpenLoopConfig slow = fast;
    slow.serviceRates = {1600.0};
    const auto f = queueing::simulateOpenLoop(arrivals, fast);
    const auto s = queueing::simulateOpenLoop(arrivals, slow);
    for (std::size_t i = 0; i < f.responseTimes.size(); ++i)
        EXPECT_GE(s.responseTimes[i], f.responseTimes[i]);
}

// --- Stepped sweeps --------------------------------------------------

SweepConfig
smallSweep()
{
    SweepConfig config;
    config.arrival.seed = 21;
    config.servers.serviceRates = {2000.0};
    config.servers.seed = 21;
    config.startQps = 400.0;
    config.stepSize = 400.0;
    config.stepStop = 1600.0;
    config.preRequests = 500;
    config.measureRequests = 3000;
    config.postRequests = 100;
    return config;
}

TEST(Sweep, LatencyRisesWithOfferedLoad)
{
    const SweepResult result = runSweep(smallSweep());
    ASSERT_EQ(result.steps.size(), 4u);
    EXPECT_LT(result.steps.front().percentileValue,
              result.steps.back().percentileValue);
    for (const auto &step : result.steps)
        EXPECT_EQ(step.completed, step.offered);
}

TEST(Sweep, SampleLogIsByteIdenticalAcrossRepeats)
{
    const std::vector<StepResult> steps = runSweep(smallSweep()).steps;
    EXPECT_FALSE(steps.empty());
    EXPECT_EQ(steps, runSweep(smallSweep()).steps);
}

TEST(Sweep, SampleLogIsThreadCountInvariant)
{
    // Sweeps fanned across a pool must equal the serial run, byte
    // for byte, whatever worker executes which sweep.
    const int kSweeps = 8;
    std::vector<std::vector<StepResult>> parallel_steps(kSweeps);
    core::parallelFor(kSweeps, [&](std::size_t i) {
        SweepConfig config = smallSweep();
        config.arrival.seed = 100 + i;
        config.servers.seed = 100 + i;
        parallel_steps[i] = runSweep(config).steps;
    });
    for (int i = 0; i < kSweeps; ++i) {
        SweepConfig config = smallSweep();
        config.arrival.seed = 100 + static_cast<std::uint64_t>(i);
        config.servers.seed = 100 + static_cast<std::uint64_t>(i);
        EXPECT_EQ(parallel_steps[static_cast<std::size_t>(i)],
                  runSweep(config).steps);
    }
}

TEST(Sweep, PublishesLoadgenCounters)
{
    obs::Counter &steps =
        obs::Registry::global().counter("loadgen.steps");
    obs::Counter &requests =
        obs::Registry::global().counter("loadgen.requests");
    const std::uint64_t steps_before = steps.value();
    const std::uint64_t requests_before = requests.value();
    runSweep(smallSweep());
    EXPECT_EQ(steps.value() - steps_before, 4u);
    EXPECT_EQ(requests.value() - requests_before, 4u * 3600u);
}

// --- Knee search -----------------------------------------------------

KneeConfig
kneeConfig(double mu)
{
    KneeConfig config;
    config.probe = smallSweep();
    config.probe.servers.serviceRates = {mu};
    config.probe.preRequests = 1000;
    config.probe.measureRequests = 10000;
    config.probe.percentile = 0.95;
    config.targetLatency = 0.006;
    config.qpsLo = 100.0;
    config.tolerance = 4.0;
    return config;
}

TEST(Knee, MatchesTheClosedFormPrediction)
{
    // M/M/1: p95(lambda) = -ln(0.05) / (mu - lambda) hits the target
    // at lambda* = mu - (-ln(0.05)) / target.
    const double mu = 2000.0;
    const KneeResult result = findKnee(kneeConfig(mu));
    const double predicted = mu + std::log(0.05) / 0.006;
    EXPECT_NEAR(result.kneeQps, predicted, 0.05 * predicted);
    EXPECT_LE(result.latencyAtKnee, 0.006);
    EXPECT_GT(result.probes, 2u);
}

TEST(Knee, MonotoneInServiceRate)
{
    const KneeResult fast = findKnee(kneeConfig(2000.0));
    const KneeResult medium = findKnee(kneeConfig(1700.0));
    const KneeResult slow = findKnee(kneeConfig(1400.0));
    EXPECT_GT(fast.kneeQps, medium.kneeQps);
    EXPECT_GT(medium.kneeQps, slow.kneeQps);
}

TEST(Knee, ReportsZeroWhenTheBracketFails)
{
    KneeConfig config = kneeConfig(2000.0);
    config.targetLatency = 1e-6; // unmeetable
    const KneeResult result = findKnee(config);
    EXPECT_EQ(result.kneeQps, 0.0);
}

// --- des.* chaos sites ----------------------------------------------

TEST(Chaos, DesSitesAreDeterministicAndCounted)
{
    FaultGuard guard;
    fault::FaultPlan &faults = fault::FaultPlan::global();

    const SweepConfig config = smallSweep();
    const std::vector<StepResult> baseline = runSweep(config).steps;

    faults.arm("des.drop", fault::SiteSpec{.probability = 0.01,
                                           .seed = 41});
    faults.arm("des.server_stall",
               fault::SiteSpec{.probability = 0.05,
                               .seed = 43,
                               .sigma = 0.5});
    faults.arm("des.arrival_burst",
               fault::SiteSpec{.probability = 0.02,
                               .seed = 47,
                               .sigma = 1.0});

    const std::vector<StepResult> chaos_a = runSweep(config).steps;
    const std::vector<StepResult> chaos_b = runSweep(config).steps;
    // Pinned plan: identical across repeats, different from the
    // clean run, with every site's injection counter live.
    EXPECT_EQ(chaos_a, chaos_b);
    EXPECT_NE(chaos_a, baseline);
    obs::Registry &registry = obs::Registry::global();
    EXPECT_GT(registry.counter("fault.des.drop.injected").value(), 0u);
    EXPECT_GT(
        registry.counter("fault.des.server_stall.injected").value(),
        0u);
    EXPECT_GT(
        registry.counter("fault.des.arrival_burst.injected").value(),
        0u);

    // Disarmed again, the subsystem returns to the clean results: the
    // fault layer at rest changes nothing.
    faults.reset();
    EXPECT_EQ(runSweep(config).steps, baseline);
}

TEST(Chaos, DropSiteDropsAndStallSiteStretches)
{
    FaultGuard guard;
    fault::FaultPlan &faults = fault::FaultPlan::global();

    ArrivalConfig arrival;
    arrival.rate = 1000.0;
    arrival.seed = 51;
    const auto arrivals = ArrivalStream(arrival).generate(10000);
    queueing::OpenLoopConfig config;
    config.serviceRates = {2000.0};
    config.seed = 51;
    const auto clean = queueing::simulateOpenLoop(arrivals, config);

    faults.arm("des.drop",
               fault::SiteSpec{.probability = 0.05, .seed = 53});
    const auto dropped = queueing::simulateOpenLoop(arrivals, config);
    EXPECT_GT(dropped.dropped, 0u);
    EXPECT_EQ(dropped.offered,
              dropped.completed + dropped.dropped);
    faults.reset();

    faults.arm("des.server_stall",
               fault::SiteSpec{.probability = 0.10,
                               .seed = 57,
                               .sigma = 1.0});
    const auto stalled = queueing::simulateOpenLoop(arrivals, config);
    EXPECT_EQ(stalled.completed, clean.completed);
    // Stalls only stretch: every response >= the clean counterpart.
    for (std::size_t i = 0; i < clean.responseTimes.size(); ++i)
        EXPECT_GE(stalled.responseTimes[i], clean.responseTimes[i]);
    EXPECT_GT(stalled.percentile(0.99), clean.percentile(0.99));
}

// --- Load-aware online scheduling -----------------------------------

scheduler::Pairing
linearPairing(double per_instance, int max_instances = 6)
{
    scheduler::Pairing p;
    p.latencyApp = "svc";
    p.batchApp = "batch";
    for (int k = 1; k <= max_instances; ++k) {
        scheduler::CoLocationOption option;
        option.actualQos = 1.0 - per_instance * k;
        option.predictedQos = option.actualQos;
        p.byInstances.push_back(option);
    }
    return p;
}

/** Knee row: linear decay from @p solo by @p per_depth per depth. */
std::vector<double>
linearKnees(double solo, double per_depth, int max_instances = 6)
{
    std::vector<double> row;
    for (int d = 0; d <= max_instances; ++d)
        row.push_back(solo - per_depth * d);
    return row;
}

TEST(LoadAware, ValidatesItsConfiguration)
{
    const scheduler::Cluster cluster(
        {linearPairing(0.02)}, {"svc"}, 10);
    scheduler::OnlineConfig config;
    config.loadAware.enabled = true;
    config.loadAware.baseQps = 0.0; // invalid
    config.loadAware.kneeByPairing = {linearKnees(1500, 100)};
    EXPECT_THROW(cluster.runOnline(0.90, config), std::invalid_argument);
    config.loadAware.baseQps = 400.0;
    config.loadAware.kneeByPairing.clear(); // missing table
    EXPECT_THROW(cluster.runOnline(0.90, config), std::invalid_argument);
    config.loadAware.kneeByPairing = {{1500, 1400}}; // short row
    EXPECT_THROW(cluster.runOnline(0.90, config), std::invalid_argument);
}

TEST(LoadAware, DisabledMatchesBaselineExactly)
{
    FaultGuard guard;
    fault::FaultPlan::global().arm(
        "server.fail", fault::SiteSpec{.probability = 0.05,
                                       .seed = 61});
    const scheduler::Cluster cluster(
        {linearPairing(0.02)}, {"svc"}, 100);
    scheduler::OnlineConfig config;
    config.epochs = 10;
    const auto baseline = cluster.runOnline(0.90, config);
    config.loadAware.kneeByPairing = {linearKnees(1500, 100)};
    config.loadAware.baseQps = 400.0;
    // Not enabled: the table is inert and the run identical.
    const auto inert = cluster.runOnline(0.90, config);
    ASSERT_EQ(baseline.timeline.size(), inert.timeline.size());
    for (std::size_t e = 0; e < baseline.timeline.size(); ++e) {
        EXPECT_EQ(baseline.timeline[e].totalInstances,
                  inert.timeline[e].totalInstances);
        EXPECT_EQ(baseline.timeline[e].utilization,
                  inert.timeline[e].utilization);
        EXPECT_EQ(inert.timeline[e].fillerInstances, 0.0);
        EXPECT_EQ(inert.timeline[e].fillersShed, 0);
        EXPECT_EQ(inert.timeline[e].loadSpikes, 0);
    }
    EXPECT_EQ(baseline.final.totalInstances,
              inert.final.totalInstances);
}

TEST(LoadAware, KneeCapsGuaranteedAdmission)
{
    // QoS alone would admit 5 instances (2%/instance at target 0.90),
    // but the knee table only carries the base load to depth 3.
    const scheduler::Cluster cluster(
        {linearPairing(0.02)}, {"svc"}, 50);
    scheduler::OnlineConfig config;
    config.epochs = 4;
    config.loadAware.enabled = true;
    config.loadAware.baseQps = 400.0;
    // knee(3) = 500 >= 400 > knee(4) = 300.
    config.loadAware.kneeByPairing = {linearKnees(1100, 200)};
    const auto run = cluster.runOnline(0.90, config);
    // 50 servers x depth 3 guaranteed; fillers cannot exceed the
    // knee either, so the total stays at the load cap.
    EXPECT_EQ(run.timeline.back().totalInstances, 150.0);
    EXPECT_EQ(run.timeline.back().fillerInstances, 0.0);
    EXPECT_EQ(run.final.violatedServers, 0);
}

TEST(LoadAware, FillersPackIdleContextsAtBaseLoad)
{
    const scheduler::Cluster cluster(
        {linearPairing(0.04)}, {"svc"}, 50);
    scheduler::OnlineConfig config;
    config.epochs = 6;
    config.loadAware.enabled = true;
    config.loadAware.baseQps = 400.0;
    // Generous knees: depth 6 still carries 900 QPS.
    config.loadAware.kneeByPairing = {linearKnees(1500, 100)};
    const auto run = cluster.runOnline(0.90, config);
    const auto &last = run.timeline.back();
    // QoS admits 2 guaranteed (4%/instance); fillers take the rest.
    EXPECT_EQ(last.totalInstances, 100.0);
    EXPECT_EQ(last.fillerInstances, 200.0);
    EXPECT_EQ(last.loadViolations, 0);
}

TEST(LoadAware, SpikesShedFillersNeverGuaranteed)
{
    FaultGuard guard;
    // Intermittent spikes: base offered 400 fits depth 6 (knee(6) =
    // 700), a 2x spike (800) only depth 5 (knee(5) = 800). Spiked
    // servers shed one filler; calm epochs grow it back.
    fault::FaultPlan::global().arm(
        "des.arrival_burst",
        fault::SiteSpec{.probability = 0.5, .seed = 67, .sigma = 0.5});
    const scheduler::Cluster cluster(
        {linearPairing(0.04)}, {"svc"}, 50);
    scheduler::OnlineConfig config;
    config.epochs = 6;
    // Unreachable headroom suppresses QoS probes: the test isolates
    // the filler dynamics from probe/evict convergence noise.
    config.headroom = 0.5;
    config.loadAware.enabled = true;
    config.loadAware.baseQps = 400.0;
    config.loadAware.spikeFactor = 2.0;
    config.loadAware.kneeByPairing = {linearKnees(1300, 100)};
    const auto run = cluster.runOnline(0.90, config);
    int spikes = 0, shed = 0, load_violations = 0;
    for (const auto &e : run.timeline) {
        spikes += e.loadSpikes;
        shed += e.fillersShed;
        load_violations += e.loadViolations;
        // Guaranteed tier (2 instances per server) is untouched.
        EXPECT_EQ(e.totalInstances, 100.0);
        // Per-server fillers stay between the spike depth (3 fillers)
        // and the calm depth (4 fillers).
        EXPECT_GE(e.fillerInstances, 150.0);
        EXPECT_LE(e.fillerInstances, 200.0);
    }
    EXPECT_GT(spikes, 0);
    EXPECT_LT(spikes, 6 * 50);
    // Graceful degradation is exercised, never at the guaranteed
    // tier's expense.
    EXPECT_GT(shed, 0);
    EXPECT_EQ(load_violations, 0);
    EXPECT_EQ(run.final.violatedServers, 0);
}

TEST(LoadAware, UndersizedGuaranteedKneeIsCountedNotEvicted)
{
    FaultGuard guard;
    fault::FaultPlan::global().arm(
        "des.arrival_burst",
        fault::SiteSpec{.probability = 1.0, .seed = 71, .sigma = 0.5});
    const scheduler::Cluster cluster(
        {linearPairing(0.02)}, {"svc"}, 20);
    scheduler::OnlineConfig config;
    config.epochs = 3;
    config.loadAware.enabled = true;
    config.loadAware.baseQps = 400.0;
    config.loadAware.spikeFactor = 2.0;
    // Base load fits depth 5 (knee 450), but the spike (800) exceeds
    // even knee(5): the guaranteed tier itself is past its knee.
    config.loadAware.kneeByPairing = {linearKnees(1450, 200)};
    const auto run = cluster.runOnline(0.90, config);
    int load_violations = 0;
    for (const auto &e : run.timeline) {
        load_violations += e.loadViolations;
        // Counted, never evicted: the guaranteed tier stays put.
        EXPECT_EQ(e.totalInstances, 100.0);
    }
    EXPECT_GT(load_violations, 0);
}

} // namespace
} // namespace smite::loadgen
