#include "queueing/des.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>

#include "fault/fault.h"
#include "queueing/keyed_stream.h"
#include "stats/summary.h"

namespace smite::queueing {

double
OpenLoopResult::percentile(double p, std::size_t from,
                           std::size_t to) const
{
    if (p <= 0.0 || p >= 1.0)
        throw std::invalid_argument("percentile must be in (0, 1)");
    std::vector<double> window;
    const std::size_t end = std::min(to, responseTimes.size());
    for (std::size_t i = from; i < end; ++i) {
        if (responseTimes[i] >= 0.0)
            window.push_back(responseTimes[i]);
    }
    return stats::quantile(std::move(window), p);
}

double
OpenLoopResult::meanResponse(std::size_t from, std::size_t to) const
{
    double sum = 0.0;
    std::uint64_t n = 0;
    const std::size_t end = std::min(to, responseTimes.size());
    for (std::size_t i = from; i < end; ++i) {
        if (responseTimes[i] >= 0.0) {
            sum += responseTimes[i];
            ++n;
        }
    }
    if (n == 0)
        throw std::logic_error("no samples");
    return sum / static_cast<double>(n);
}

std::uint64_t
OpenLoopResult::completedIn(std::size_t from, std::size_t to) const
{
    std::uint64_t n = 0;
    const std::size_t end = std::min(to, responseTimes.size());
    for (std::size_t i = from; i < end; ++i)
        n += responseTimes[i] >= 0.0 ? 1 : 0;
    return n;
}

std::uint64_t
OpenLoopResult::droppedIn(std::size_t from, std::size_t to) const
{
    std::uint64_t n = 0;
    const std::size_t end = std::min(to, responseTimes.size());
    for (std::size_t i = from; i < end; ++i)
        n += responseTimes[i] < 0.0 ? 1 : 0;
    return n;
}

std::vector<double>
unitServiceTimes(std::uint64_t seed, std::size_t n)
{
    // One keyed unit-exponential per request, scaled by the chosen
    // server's (degraded) rate in the simulation — the same request
    // re-simulated under a deeper co-location costs proportionally
    // longer, with no new randomness.
    std::vector<double> unit;
    unit.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        unit.push_back(keyed::exponentialUnit(
            keyed::draw(seed, keyed::kSaltService, i, 0)));
    }
    return unit;
}

OpenLoopResult
simulateOpenLoop(const std::vector<double> &arrivals,
                 const OpenLoopConfig &config)
{
    return simulateOpenLoop(
        arrivals, unitServiceTimes(config.seed, arrivals.size()), config);
}

OpenLoopResult
simulateOpenLoop(const std::vector<double> &arrivals,
                 const std::vector<double> &unitService,
                 const OpenLoopConfig &config)
{
    if (config.serviceRates.empty())
        throw std::invalid_argument("need at least one server");
    for (const double mu : config.serviceRates) {
        if (mu <= 0.0)
            throw std::invalid_argument(
                "service rates must be positive");
    }
    if (unitService.size() < arrivals.size())
        throw std::invalid_argument(
            "need one unit service draw per arrival");

    const std::size_t servers = config.serviceRates.size();

    fault::FaultPlan &faults = fault::FaultPlan::global();
    const bool chaos_drop =
        faults.enabled() && faults.armed("des.drop");
    const bool chaos_stall =
        faults.enabled() && faults.armed("des.server_stall");
    // Fault keys carry the simulation seed so two co-located
    // services chaos-tested in one process draw distinct-but-pinned
    // fault patterns; with one shared seed (common random numbers)
    // the patterns coincide by construction.
    const std::string key_prefix =
        "q" + std::to_string(config.seed) + "#r";

    // Per-server FCFS state: the departure times of everything
    // admitted but not yet finished (monotone per server, so a deque
    // pops expired entries from the front in O(1) amortized), plus
    // the last departure for the Lindley start-time recursion.
    std::vector<std::deque<double>> in_flight(servers);
    std::vector<double> last_departure(servers, 0.0);

    OpenLoopResult result;
    result.responseTimes.reserve(arrivals.size());

    double prev_arrival = 0.0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const double t = std::max(arrivals[i], prev_arrival);
        prev_arrival = t;
        ++result.offered;

        // Retire everything that departed before this arrival — the
        // queue lengths the balancer sees are point-in-time truth.
        for (std::size_t s = 0; s < servers; ++s) {
            auto &q = in_flight[s];
            while (!q.empty() && q.front() <= t)
                q.pop_front();
        }

        if (chaos_drop &&
            faults.shouldInject("des.drop",
                                key_prefix + std::to_string(i))) {
            ++result.dropped;
            result.responseTimes.push_back(OpenLoopResult::kDropped);
            continue;
        }

        // Balance: least-loaded, ties to the lowest index.
        std::size_t chosen = 0;
        for (std::size_t s = 1; s < servers; ++s) {
            if (in_flight[s].size() < in_flight[chosen].size())
                chosen = s;
        }

        double service = unitService[i] / config.serviceRates[chosen];
        if (chaos_stall &&
            faults.shouldInject("des.server_stall",
                                key_prefix + std::to_string(i) + "#s" +
                                    std::to_string(chosen))) {
            const double eps = std::max(
                0.0, faults.gaussian("des.server_stall",
                                     key_prefix + std::to_string(i) +
                                         "#s" + std::to_string(chosen)));
            service *= 1.0 + eps;
        }

        const double start = std::max(t, last_departure[chosen]);
        const double departure = start + service;
        last_departure[chosen] = departure;
        in_flight[chosen].push_back(departure);

        ++result.completed;
        result.responseTimes.push_back(departure - t);
    }
    return result;
}

} // namespace smite::queueing
