/**
 * @file
 * Keyed randomness for the streaming cluster (shard.h).
 *
 * Every draw is fault::draw (fault/keyed.h) under this layer's domain
 * constant: a pure function of (seed, salt, a, b) — typically (seed,
 * event kind, server, occurrence index) — so the outcome is
 * independent of placement order and of which engine, full scan or
 * calendar, visits the server: a draw belongs to a *server*, not to
 * the position of that server in a scan.
 *
 * geometricSteps() converts one uniform draw into a
 * time-to-next-event count by inversion, which is what lets the
 * streaming engine skip the per-epoch Bernoulli scan entirely: a
 * Geometric(p) gap between events is distributed identically to
 * "flip a p-coin every epoch", but costs one draw per *event*
 * instead of one per epoch per server.
 */

#ifndef SMITE_SCHEDULER_KEYED_H
#define SMITE_SCHEDULER_KEYED_H

#include <cmath>
#include <cstdint>
#include <limits>

#include "fault/keyed.h"

namespace smite::scheduler::keyed {

/** Sentinel epoch for "this event never happens" (p == 0 draws). */
inline constexpr std::int64_t kNever =
    std::numeric_limits<std::int64_t>::max();

/** Domain constant separating scheduler draws from other layers'. */
inline constexpr std::uint64_t kDomain = 0x5851f42d4c957f2dull;

// Shared primitives, also called by the scale-out harnesses.
using fault::mix64;
using fault::toUnit;

/** One keyed 64-bit draw: a pure function of (seed, salt, a, b). */
inline std::uint64_t
draw(std::uint64_t seed, std::uint64_t salt, std::uint64_t a,
     std::uint64_t b)
{
    return fault::draw(kDomain, seed, salt, a, b);
}

/**
 * Epochs until the next success of a per-epoch Bernoulli(p) trial,
 * sampled by inversion from one uniform draw: Geometric(p) on
 * {1, 2, ...}. Returns kNever when p <= 0 (or the draw lands so deep
 * in the tail the count cannot be represented); returns 1 when
 * p >= 1.
 */
inline std::int64_t
geometricSteps(double p, std::uint64_t h)
{
    if (p <= 0.0)
        return kNever;
    if (p >= 1.0)
        return 1;
    const double u = toUnit(h);
    // floor(log(1-u) / log(1-p)) + 1, computed with log1p for
    // precision at small p.
    const double k = std::floor(std::log1p(-u) / std::log1p(-p));
    if (!(k < 9.0e15))
        return kNever;
    return 1 + static_cast<std::int64_t>(k);
}

} // namespace smite::scheduler::keyed

#endif // SMITE_SCHEDULER_KEYED_H
