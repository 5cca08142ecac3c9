/**
 * @file
 * Set-associative write-back LRU cache model.
 *
 * The model tracks tags, LRU ordering and dirty bits only (no data).
 * It is used for the private L1I/L1D/L2 caches of each core and for
 * the shared L3. SMT capacity contention arises naturally because the
 * two hardware contexts of a core probe the same L1/L2 arrays with
 * disjoint address spaces.
 *
 * Storage is flattened into per-field arrays (tags / LRU stamps /
 * dirty bits) so a set lookup scans one contiguous run of tags —
 * typically a single cache line on the host — instead of striding
 * through an array of structs. Behavior is bit-identical to the
 * array-of-structs model it replaced (enforced by test_golden_sim).
 */

#ifndef SMITE_SIM_CACHE_H
#define SMITE_SIM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace smite::sim {

/** Geometry and timing of one cache level. */
struct CacheConfig {
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    int assoc = 8;
    Cycle hitLatency = 4;
};

/**
 * A single set-associative LRU cache array.
 *
 * Addresses are line-granular (see lineAddr()). The cache allocates on
 * both read and write misses (write-allocate) and reports dirty
 * victims so the caller can model write-back traffic.
 */
class SetAssocCache
{
  public:
    /** Outcome of an access(). */
    struct AccessResult {
        bool hit = false;
        bool evictedValid = false;  ///< a valid victim was replaced
        bool evictedDirty = false;  ///< ... and it was dirty
        Addr evictedLine = 0;       ///< line address of the victim
    };

    explicit SetAssocCache(const CacheConfig &config);

    /**
     * Look up (and on miss, allocate) a line.
     *
     * @param line line-granular address (addr / 64)
     * @param write true for stores (marks the line dirty)
     * @return hit/miss and any dirty eviction
     */
    AccessResult access(Addr line, bool write);

    /**
     * Read-allocate a line the caller knows is absent: exactly
     * access(line, false) minus the hit scan, which absence makes a
     * provable miss (asserted in debug builds). The prewarm paths
     * fill a fresh machine with each line exactly once, so they pay
     * this instead of a full-set scan per insert.
     */
    AccessResult insertAbsent(Addr line);

    /**
     * insertAbsent() for @p count consecutive lines starting at
     * @p line, with state identical to the per-line loop. Consecutive
     * lines land in consecutive sets, so while the prefix-fill
     * invariant holds the whole batch reduces to sequential stores —
     * no per-line call or eviction bookkeeping. Sets that are full
     * (or have a broken prefix) fall back to insertAbsent().
     */
    void insertAbsentRange(Addr line, std::uint64_t count);

    /** Non-mutating lookup: is the line present? */
    bool probe(Addr line) const;

    /**
     * Drop one line if present (back-invalidation from an inclusive
     * outer level). The dirty bit is discarded with it; the write-
     * back traffic is accounted by the caller.
     * @return true if the line was present
     */
    bool invalidate(Addr line);

    /** Hit latency of this level. */
    Cycle hitLatency() const { return config_.hitLatency; }

    /** Number of sets in the array. */
    std::uint64_t numSets() const { return numSets_; }

    /** Configured geometry. */
    const CacheConfig &config() const { return config_; }

  private:
    static constexpr Addr kNoTag = ~Addr{0};

    /** fillWays_ value meaning "valid ways are not a [0, n) prefix". */
    static constexpr std::uint8_t kNoPrefix = 0xFF;

    /** Set of @p line: masked when numSets_ is a power of two. */
    std::uint64_t
    setIndex(Addr line) const
    {
        return setsPow2_ ? (line & setMask_) : (line % numSets_);
    }

    CacheConfig config_;
    std::uint64_t numSets_;
    std::uint64_t setMask_ = 0;   ///< numSets_ - 1 when a power of two
    bool setsPow2_ = false;
    int assoc_;
    std::uint64_t useClock_ = 0;

    /**
     * Repeat-access memo: the line touched by the last access() and
     * where it sits. A back-to-back access to the same line is a hit
     * on the array's most recently used way, and re-stamping a way
     * that nothing else has touched in between cannot change any
     * future victim choice (within-set stamp order is unchanged), so
     * the whole lookup collapses to one compare. Spatial locality
     * makes this the common case on the L1 data path — streaming
     * code touches each 64B line ~8 times in a row. Invalidated by
     * any other line's access, insert or invalidate.
     */
    Addr lastLine_ = kNoTag;
    std::size_t lastIdx_ = 0;

    // Flat set-major arrays, numSets_ * assoc_ entries each. Empty
    // ways carry tag kNoTag and stamp 0; valid stamps are >= 1.
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> dirty_;

    /**
     * Per-set prefix-fill tracker: when != kNoPrefix, the set's valid
     * ways are exactly ways [0, fillWays_[s]) — true from empty
     * through sequential filling, since misses allocate the first
     * empty way. insertAbsent() then places its line at way
     * fillWays_[s] directly, no tag scan needed (the dominant cost of
     * prewarming a multi-megabyte L3 line by line). An invalidate in
     * the middle of the prefix breaks the invariant; the set falls
     * back to scanning for the rest of the run (kNoPrefix is sticky).
     */
    std::vector<std::uint8_t> fillWays_;
};

} // namespace smite::sim

#endif // SMITE_SIM_CACHE_H
