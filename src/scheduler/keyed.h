/**
 * @file
 * Keyed randomness for the streaming cluster (shard.h).
 *
 * Every draw is a pure function of (seed, salt, a, b) — typically
 * (seed, event kind, server, occurrence index) — so the outcome is
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

namespace smite::scheduler::keyed {

/** Sentinel epoch for "this event never happens" (p == 0 draws). */
inline constexpr std::int64_t kNever =
    std::numeric_limits<std::int64_t>::max();

/** SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * One keyed 64-bit draw: a pure function of (seed, salt, a, b). The
 * salt separates event kinds (failure vs departure vs probe...), so
 * streams never collide even for equal (a, b).
 */
inline std::uint64_t
draw(std::uint64_t seed, std::uint64_t salt, std::uint64_t a,
     std::uint64_t b)
{
    std::uint64_t h = mix64(seed ^ 0x5851f42d4c957f2dull);
    h = mix64(h ^ salt);
    h = mix64(h ^ a);
    return mix64(h ^ b);
}

/** Map a 64-bit draw to a uniform double in [0, 1). */
inline double
toUnit(std::uint64_t h)
{
    // 53 mantissa bits: the usual exact uniform-double construction.
    return static_cast<double>(h >> 11) * 0x1.0p-53;
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
