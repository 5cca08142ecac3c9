/**
 * @file
 * Keyed draws and stable hashing, shared by every layer.
 *
 * A keyed draw is a pure function of (domain, seed, salt, a, b) —
 * typically (layer, seed, event kind, entity, occurrence index) — so a
 * random value belongs to the thing it decides (a request, a server, a
 * measurement), not to the order in which a run happened to visit it.
 * That is what keeps chaos plans, open-loop load and the streaming
 * scheduler byte-identical across repeats and SMITE_THREADS settings.
 * Each layer passes its own domain constant, so two layers' streams
 * never coincide for equal (seed, salt, a, b).
 *
 * Digest is the FNV-1a hasher behind replay keys, stream digests and
 * fault-site seeds. Its values persist in run logs and pinned test
 * digests, so nothing in this file may change its results.
 */

#ifndef SMITE_FAULT_KEYED_H
#define SMITE_FAULT_KEYED_H

#include <bit>
#include <cstdint>
#include <string_view>

namespace smite::fault {

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
 * One keyed 64-bit draw: a pure function of (domain, seed, salt, a, b).
 * The salt separates event kinds, so streams never collide even for
 * equal (a, b).
 */
inline std::uint64_t
draw(std::uint64_t domain, std::uint64_t seed, std::uint64_t salt,
     std::uint64_t a, std::uint64_t b)
{
    std::uint64_t h = mix64(seed ^ domain);
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
 * Incremental FNV-1a 64-bit hasher. Stable across processes and exact:
 * every field that influences an outcome is folded in bit-for-bit
 * (doubles via their bit patterns), so two different inputs share a
 * value only by a genuine hash collision.
 */
class Digest {
  public:
    /** The standard FNV-1a offset basis (fault-site seeds and keys). */
    static constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

    /**
     * The default basis is *not* the standard one: it is
     * 14695981039346656037 with its last decimal digit dropped. Replay
     * keys in existing run logs, the disk.corrupt mode choice, the
     * machine.jitter and sim.replay draws and the pinned stream
     * digests all derive from it, so it stays.
     */
    static constexpr std::uint64_t kReplayBasis = 1469598103934665603ull;

    explicit Digest(std::uint64_t basis = kReplayBasis) : hash_(basis) {}

    /** Fold in raw bytes, unprefixed. */
    Digest &
    bytes(std::string_view value)
    {
        for (const char c : value) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= kPrime;
        }
        return *this;
    }

    /** Fold in a 64-bit value, low byte first. */
    Digest &
    u64(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= value & 0xFF;
            hash_ *= kPrime;
            value >>= 8;
        }
        return *this;
    }

    /** Fold in a double via its bit pattern. */
    Digest &
    f64(double value)
    {
        return u64(std::bit_cast<std::uint64_t>(value));
    }

    /** Fold in a string, length-prefixed so fields cannot bleed. */
    Digest &
    str(std::string_view value)
    {
        return u64(value.size()).bytes(value);
    }

    /** The digest so far (never 0: 0 means "no digest"). */
    std::uint64_t
    value() const
    {
        return hash_ == 0 ? kReplayBasis : hash_;
    }

  private:
    static constexpr std::uint64_t kPrime = 1099511628211ull;
    std::uint64_t hash_;
};

} // namespace smite::fault

#endif // SMITE_FAULT_KEYED_H
