/**
 * @file
 * Keyed randomness for the open-loop queueing layer.
 *
 * Every draw is fault::draw (fault/keyed.h) under this layer's domain
 * constant: a pure function of (seed, salt, a, b) — typically (seed,
 * event kind, stream id, occurrence index) — so an arrival gap or a
 * service time belongs to a *request*, not to the order in which
 * requests happened to be simulated. That is what makes open-loop
 * load runs byte-identical across repeats, across co-locations
 * sharing one seed (common random numbers, which keeps knee searches
 * monotone in the degraded service rate), and across SMITE_THREADS
 * settings when a harness fans independent simulations across the
 * pool.
 */

#ifndef SMITE_QUEUEING_KEYED_STREAM_H
#define SMITE_QUEUEING_KEYED_STREAM_H

#include <cmath>
#include <cstdint>

#include "fault/keyed.h"

namespace smite::queueing::keyed {

/** Domain constant separating queueing draws from other layers'. */
inline constexpr std::uint64_t kDomain = 0x9e0c2b7d1f8a5e3bull;

/** Salts separating the queueing layer's event-kind streams. */
inline constexpr std::uint64_t kSaltArrival = 0x41525256ull;  // "ARRV"
inline constexpr std::uint64_t kSaltService = 0x53455256ull;  // "SERV"

/** One keyed 64-bit draw: a pure function of (seed, salt, a, b). */
inline std::uint64_t
draw(std::uint64_t seed, std::uint64_t salt, std::uint64_t a,
     std::uint64_t b)
{
    return fault::draw(kDomain, seed, salt, a, b);
}

/**
 * Unit-mean exponential variate from one keyed draw (inverse
 * transform; toUnit() < 1 so the log is finite). Scale by 1/rate for
 * an Exponential(rate) gap or service time — keeping the unit draw
 * separate from the rate is what lets two simulations that differ
 * only in a degraded service rate consume *identical* random
 * sequences.
 */
inline double
exponentialUnit(std::uint64_t h)
{
    return -std::log1p(-fault::toUnit(h));
}

} // namespace smite::queueing::keyed

#endif // SMITE_QUEUEING_KEYED_STREAM_H
