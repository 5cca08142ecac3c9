/**
 * @file
 * The discrete-event simulator of the tail-latency pipeline.
 *
 * simulateOpenLoop() is an event-driven multi-server FCFS queue fed
 * by an open-loop arrival stream (src/loadgen builds keyed Poisson
 * streams). Each request goes to the least-loaded server (ties to the
 * lowest index), queues are unbounded, and the interference-degraded
 * service rates measured by the Lab plug in per server. One server
 * fed a Poisson stream is the M/M/1 queue whose closed form
 * (queueing/mm1.h) it validates. This is the "measured" tail-latency
 * path of bench_fig13 and the engine under the knee-finding
 * bench_latency_vs_load harness.
 *
 * Robustness: three keyed fault sites exercise the queueing path in
 * chaos runs (docs/ROBUSTNESS.md) — `des.server_stall` stretches
 * individual service times, `des.drop` loses requests at admission,
 * and `des.arrival_burst` (wired in loadgen's arrival streams)
 * compresses inter-arrival gaps. All randomness is keyed per
 * (seed, stream, occurrence) — see queueing/keyed_stream.h — so
 * chaos runs and clean runs alike are byte-identical across repeats
 * and thread counts.
 */

#ifndef SMITE_QUEUEING_DES_H
#define SMITE_QUEUEING_DES_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace smite::queueing {

/**
 * Configuration of one open-loop multi-server simulation.
 */
struct OpenLoopConfig {
    /**
     * Interference-degraded service rate of each server instance
     * (requests/s); one entry per server, all must be positive.
     */
    std::vector<double> serviceRates;

    /** Seed of the keyed service-time stream. */
    std::uint64_t seed = 1;
};

/**
 * Outcome of one open-loop simulation, indexed by offered request in
 * arrival order so callers can slice warmup / measurement / cooldown
 * phases by request index.
 */
struct OpenLoopResult {
    /** Sentinel response time of a dropped request. */
    static constexpr double kDropped = -1.0;

    /** npos for the percentile / mean window bounds. */
    static constexpr std::size_t kAll =
        std::numeric_limits<std::size_t>::max();

    /** Per offered request: sojourn time, or kDropped. */
    std::vector<double> responseTimes;

    std::uint64_t offered = 0;   ///< arrivals presented
    std::uint64_t completed = 0; ///< requests served
    std::uint64_t dropped = 0;   ///< requests lost to `des.drop`

    /**
     * Empirical p-th percentile of the completed requests whose
     * arrival index lies in [from, to). @throws std::logic_error when
     * the window holds no completed sample.
     */
    double percentile(double p, std::size_t from = 0,
                      std::size_t to = kAll) const;

    /** Mean response of the completed requests in [from, to). */
    double meanResponse(std::size_t from = 0,
                        std::size_t to = kAll) const;

    /** Completed requests with arrival index in [from, to). */
    std::uint64_t completedIn(std::size_t from,
                              std::size_t to = kAll) const;

    /** Dropped requests with arrival index in [from, to). */
    std::uint64_t droppedIn(std::size_t from,
                            std::size_t to = kAll) const;
};

/**
 * The unit-mean service draws of requests [0, @p n) of the keyed
 * stream @p seed: request i served at rate mu takes unit[i] / mu.
 */
std::vector<double> unitServiceTimes(std::uint64_t seed, std::size_t n);

/**
 * Event-driven open-loop simulation: feed the @p arrivals stream
 * (absolute arrival times, non-decreasing) through the configured
 * server pool, each arrival to the server with the fewest requests in
 * flight (ties to the lowest index). Request i's service time is
 * @p unitService[i] over the chosen server's rate; drawn by
 * unitServiceTimes(config.seed, ...), two configs that differ only in
 * service rates consume identical randomness (common random numbers —
 * the property knee searches rely on).
 *
 * Fault sites (active only under an armed SMITE_FAULTS plan):
 * `des.drop` loses the request at admission; `des.server_stall`
 * stretches the sampled service time by 1 + max(0, ε),
 * ε ~ N(0, sigma).
 *
 * @throws std::invalid_argument on an empty pool, a non-positive
 *         rate, or fewer unit service draws than arrivals
 */
OpenLoopResult simulateOpenLoop(const std::vector<double> &arrivals,
                                const std::vector<double> &unitService,
                                const OpenLoopConfig &config);

/** simulateOpenLoop() over unitServiceTimes(config.seed, ...). */
OpenLoopResult simulateOpenLoop(const std::vector<double> &arrivals,
                                const OpenLoopConfig &config);

} // namespace smite::queueing

#endif // SMITE_QUEUEING_DES_H
