#include "core/tail_latency.h"

#include <limits>
#include <stdexcept>

#include "loadgen/arrival.h"

namespace smite::core {

TailLatencyPredictor::TailLatencyPredictor(
    const workload::WorkloadProfile &profile)
    : queue_(profile.isLatencySensitive() ? profile.arrivalRate : 1.0,
             profile.isLatencySensitive() ? profile.serviceRate : 2.0)
{
    if (!profile.isLatencySensitive()) {
        throw std::invalid_argument(
            "profile has no arrival/service rates: " + profile.name);
    }
}

double
TailLatencyPredictor::soloPercentile(double p) const
{
    return queue_.percentileLatency(p);
}

double
TailLatencyPredictor::predictPercentile(double p,
                                        double predicted_degradation) const
{
    if (predicted_degradation < 0.0)
        predicted_degradation = 0.0;
    if (predicted_degradation >= 1.0) {
        // The model predicts a dead server: the queue has no
        // capacity left, so the percentile diverges.
        return std::numeric_limits<double>::infinity();
    }
    return queue_.degradedPercentileLatency(p, predicted_degradation);
}

double
TailLatencyPredictor::measurePercentile(double p,
                                        double actual_degradation,
                                        std::uint64_t requests,
                                        std::uint64_t seed) const
{
    if (actual_degradation < 0.0)
        actual_degradation = 0.0;
    if (actual_degradation >= 1.0)
        throw std::invalid_argument("degradation must be below 1");
    if (requests <= kWarmupRequests)
        throw std::invalid_argument(
            "need more requests than the warmup window");
    const double mu_prime = (1.0 - actual_degradation) * queue_.mu();

    // Measured path: the open-loop DES — a Poisson arrival stream at
    // the profile's design rate through one server at the degraded
    // service rate. Statistically this is still M/M/1 (the closed
    // form stays a valid cross-check), but the engine is the same one
    // the load sweeps and knee searches use, exercises the
    // `des.arrival_burst` / `des.server_stall` / `des.drop` chaos
    // sites, and is keyed, so the measurement is byte-identical
    // across repeats and thread counts.
    loadgen::ArrivalConfig arrival;
    arrival.rate = queue_.lambda();
    arrival.seed = seed;
    loadgen::ArrivalStream source(arrival);

    queueing::OpenLoopConfig server;
    server.serviceRates = {mu_prime};
    server.seed = seed;

    const auto sim = queueing::simulateOpenLoop(
        source.generate(static_cast<std::size_t>(requests)), server);
    return sim.percentile(p, kWarmupRequests);
}

} // namespace smite::core
