/**
 * @file
 * Deterministic open-loop Poisson arrivals.
 *
 * The load generator is *open-loop* in mutated's sense: arrivals are
 * scheduled by the process, never gated on responses, so an
 * overloaded server sees the queue it would see in production
 * instead of the self-throttling a closed-loop client provides. The
 * process is memoryless arrivals at a constant mean rate — the
 * paper's M/M/1 assumption (Equations 4-6).
 *
 * Every draw is keyed per (seed, stream, occurrence) — see
 * queueing/keyed_stream.h — so a stream is a pure value: the same
 * config replays the same arrival times byte-for-byte, on any thread,
 * in any interleaving with other streams.
 *
 * Robustness: the `des.arrival_burst` fault site (docs/ROBUSTNESS.md)
 * compresses individual inter-arrival gaps by 1 + |ε|, ε ~ N(0,
 * sigma) — a seeded stand-in for the correlated arrival spikes
 * (retry storms, synchronized clients) that overload real services.
 */

#ifndef SMITE_LOADGEN_ARRIVAL_H
#define SMITE_LOADGEN_ARRIVAL_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace smite::loadgen {

/**
 * The open-loop arrival process. Poisson is the only one; the type
 * stays because perfbench/perfbench.cpp assigns it.
 */
enum class ArrivalKind { kPoisson };

/** Configuration of one arrival stream. */
struct ArrivalConfig {
    ArrivalKind kind = ArrivalKind::kPoisson;

    /** Mean arrival rate (requests/s). */
    double rate = 1000.0;

    /** Keyed randomness root. */
    std::uint64_t seed = 1;

    /**
     * Sub-stream id: two streams with the same seed but different
     * stream ids are independent (one per sweep step, typically).
     */
    std::uint64_t stream = 0;
};

/**
 * The rate-free draws of the first @p n arrivals of @p config 's
 * stream: one keyed unit-mean exponential gap per arrival, with
 * `des.arrival_burst` applied. `config.rate` is not read, so streams
 * that differ only in rate share these draws.
 */
std::vector<double> unitGaps(const ArrivalConfig &config,
                             std::size_t n);

/**
 * Absolute arrival times (seconds) at @p rate: arrival i lands at the
 * running sum of gap / rate over the first i + 1 @p gaps.
 */
std::vector<double> arrivalTimes(const std::vector<double> &gaps,
                                 double rate);

/**
 * A deterministic arrival-time generator. Determinism across threads
 * comes from the keyed draws, not from sharing instances.
 */
class ArrivalStream
{
  public:
    /** @throws std::invalid_argument on a non-positive rate */
    explicit ArrivalStream(const ArrivalConfig &config);

    /** The first @p n absolute arrival times of the stream. */
    std::vector<double> generate(std::size_t n) const;

  private:
    ArrivalConfig config_;
};

} // namespace smite::loadgen

#endif // SMITE_LOADGEN_ARRIVAL_H
