/**
 * @file
 * FNV-1a 64-bit streaming digest used to build replay identity keys.
 *
 * The run-level replay store (sim/replay.h) keys on digests of machine
 * configurations and uop-stream identities. The hash must be *stable
 * across processes* (the run log persists keys on disk) and exact: two
 * different configurations colliding would replay the wrong results,
 * so every field that influences a run's outcome is folded in
 * bit-for-bit (doubles via their bit patterns).
 */

#ifndef SMITE_SIM_DIGEST_H
#define SMITE_SIM_DIGEST_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace smite::sim {

/** Incremental FNV-1a 64-bit hasher. */
class Digest {
  public:
    /** Fold in a 64-bit value. */
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
        u64(value.size());
        for (const char c : value) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= kPrime;
        }
        return *this;
    }

    /** The digest so far (never returns 0: 0 means "no digest"). */
    std::uint64_t
    value() const
    {
        return hash_ == 0 ? kOffset : hash_;
    }

  private:
    static constexpr std::uint64_t kOffset = 1469598103934665603ull;
    static constexpr std::uint64_t kPrime = 1099511628211ull;
    std::uint64_t hash_ = kOffset;
};

} // namespace smite::sim

#endif // SMITE_SIM_DIGEST_H
