/**
 * @file
 * Unit and property tests for the M/M/1 closed form (Equations 4-6)
 * and its validation against the discrete-event simulator (one
 * open-loop server fed a Poisson stream).
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "loadgen/arrival.h"
#include "queueing/des.h"
#include "queueing/mm1.h"

namespace smite::queueing {
namespace {

TEST(Mm1, BasicProperties)
{
    const Mm1 q(50.0, 100.0);
    EXPECT_NEAR(q.utilization(), 0.5, 1e-12);
    EXPECT_TRUE(q.stable());
    EXPECT_NEAR(q.meanResponseTime(), 1.0 / 50.0, 1e-12);
}

TEST(Mm1, RejectsNonPositiveRates)
{
    EXPECT_THROW(Mm1(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(Mm1(1.0, -1.0), std::invalid_argument);
}

TEST(Mm1, PdfIntegratesToCdf)
{
    const Mm1 q(30.0, 100.0);
    // Numerically integrate the PDF and compare with the CDF.
    const double t_end = 0.05;
    const int steps = 20000;
    double integral = 0.0;
    for (int i = 0; i < steps; ++i) {
        const double t = (i + 0.5) * t_end / steps;
        integral += q.responseTimePdf(t) * (t_end / steps);
    }
    EXPECT_NEAR(integral, q.responseTimeCdf(t_end), 1e-4);
}

TEST(Mm1, PercentileInvertsCdf)
{
    const Mm1 q(700.0, 1000.0);
    for (double p : {0.5, 0.9, 0.95, 0.99}) {
        const double t = q.percentileLatency(p);
        EXPECT_NEAR(q.responseTimeCdf(t), p, 1e-12) << "p=" << p;
    }
}

TEST(Mm1, DegradedPercentileMatchesEquation6)
{
    const Mm1 q(1200.0, 2000.0);
    const double p = 0.9, deg = 0.2;
    const double expected =
        -std::log(1.0 - p) / ((1.0 - deg) * 2000.0 - 1200.0);
    EXPECT_NEAR(q.degradedPercentileLatency(p, deg), expected, 1e-12);
}

TEST(Mm1, DegradationToInstabilityIsInfinite)
{
    const Mm1 q(900.0, 1000.0);
    EXPECT_TRUE(std::isinf(q.degradedPercentileLatency(0.9, 0.2)));
}

TEST(Mm1, ZeroDegradationIsSolo)
{
    const Mm1 q(1200.0, 2000.0);
    EXPECT_NEAR(q.degradedPercentileLatency(0.9, 0.0),
                q.percentileLatency(0.9), 1e-12);
}

TEST(Mm1, TailGrowsSuperLinearlyWithDegradation)
{
    // The paper's motivation for Figure 16: tail latency grows
    // super-linearly with throughput degradation.
    const Mm1 q(1200.0, 2000.0);
    const double t0 = q.percentileLatency(0.9);
    const double t10 = q.degradedPercentileLatency(0.9, 0.10);
    const double t20 = q.degradedPercentileLatency(0.9, 0.20);
    EXPECT_GT((t20 - t10), (t10 - t0));
}

TEST(Mm1, UnstableQueueThrows)
{
    const Mm1 q(2.0, 1.0);
    EXPECT_FALSE(q.stable());
    EXPECT_THROW(q.percentileLatency(0.9), std::logic_error);
    EXPECT_THROW(q.meanResponseTime(), std::logic_error);
}

/**
 * One server with an unbounded queue fed a keyed Poisson stream: the
 * M/M/1 queue of the closed form.
 */
OpenLoopResult
openLoopMm1(double lambda, double mu, std::size_t requests,
            std::uint64_t seed)
{
    loadgen::ArrivalConfig arrival;
    arrival.rate = lambda;
    arrival.seed = seed;
    OpenLoopConfig config;
    config.serviceRates = {mu};
    config.seed = seed;
    return simulateOpenLoop(
        loadgen::ArrivalStream(arrival).generate(requests), config);
}

/** Requests discarded from the statistics while the queue fills. */
constexpr std::size_t kWarmupRequests = 1000;

/**
 * Property: the simulated percentile matches the closed form across
 * utilizations (this is the validation the paper's Equation 6 rests
 * on).
 */
class ClosedFormVsSim : public ::testing::TestWithParam<double>
{
};

TEST_P(ClosedFormVsSim, NinetiethPercentileAgrees)
{
    const double rho = GetParam();
    const double mu = 1000.0;
    const double lambda = rho * mu;
    const Mm1 q(lambda, mu);
    const auto sim = openLoopMm1(lambda, mu, 400000, 11);
    EXPECT_EQ(sim.completed, sim.offered);
    const double analytic = q.percentileLatency(0.9);
    const double simulated = sim.percentile(0.9, kWarmupRequests);
    EXPECT_NEAR(simulated / analytic, 1.0, 0.06)
        << "rho=" << rho << " analytic=" << analytic
        << " simulated=" << simulated;
}

INSTANTIATE_TEST_SUITE_P(Utilizations, ClosedFormVsSim,
                         ::testing::Values(0.1, 0.3, 0.5, 0.6, 0.7,
                                           0.8, 0.9));

TEST(OpenLoop, SingleServerMeanMatchesClosedForm)
{
    const Mm1 q(600.0, 1000.0);
    const auto sim = openLoopMm1(600, 1000, 400000, 5);
    EXPECT_NEAR(sim.meanResponse(kWarmupRequests) / q.meanResponseTime(),
                1.0, 0.05);
}

TEST(OpenLoop, EmptyWindowHasNoSamples)
{
    // A window past the last request holds nothing to measure.
    const auto sim = openLoopMm1(50.0, 100.0, 1000, 1);
    EXPECT_THROW(sim.percentile(0.9, 1000), std::logic_error);
    EXPECT_THROW(sim.meanResponse(1000), std::logic_error);
    EXPECT_EQ(sim.completedIn(999), 1u);
}

TEST(OpenLoop, SingleServerMatchesClosedForm)
{
    const Mm1 q(700.0, 1000.0);
    const auto sim = openLoopMm1(700.0, 1000.0, 400000, 19);
    EXPECT_EQ(sim.completed, sim.offered);
    EXPECT_NEAR(sim.percentile(0.9, kWarmupRequests) /
                    q.percentileLatency(0.9),
                1.0, 0.06);
    EXPECT_NEAR(sim.meanResponse(kWarmupRequests) / q.meanResponseTime(),
                1.0, 0.05);
}

TEST(OpenLoop, Deterministic)
{
    loadgen::ArrivalConfig arrival;
    arrival.rate = 800.0;
    arrival.seed = 23;
    const auto arrivals =
        loadgen::ArrivalStream(arrival).generate(10000);
    OpenLoopConfig config;
    config.serviceRates = {1000.0, 1000.0};
    config.seed = 23;
    const auto a = simulateOpenLoop(arrivals, config);
    const auto b = simulateOpenLoop(arrivals, config);
    EXPECT_EQ(a.responseTimes, b.responseTimes);
}

TEST(OpenLoop, RejectsBadServiceRates)
{
    OpenLoopConfig config;
    EXPECT_THROW(simulateOpenLoop({0.0}, config),
                 std::invalid_argument); // no servers
    config.serviceRates = {1000.0, 0.0};
    EXPECT_THROW(simulateOpenLoop({0.0}, config),
                 std::invalid_argument); // non-positive rate
}

} // namespace
} // namespace smite::queueing
