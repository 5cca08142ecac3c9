/**
 * @file
 * Fully-associative LRU translation lookaside buffer model.
 *
 * A TLB miss costs a fixed page-walk latency that is added to the
 * access latency of the triggering load/store/instruction fetch.
 *
 * Lookups are O(1): an open-addressing page index finds the entry and
 * an intrusive doubly-linked list maintains exact LRU order, replacing
 * the seed model's O(entries) linear scan (the data TLB has 512
 * entries and is probed by every load and store, which made that scan
 * the simulator's hottest loop). Hit/miss decisions and victim choice
 * are bit-identical to the scan model (enforced by test_golden_sim).
 */

#ifndef SMITE_SIM_TLB_H
#define SMITE_SIM_TLB_H

#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace smite::sim {

/** Geometry and timing of a TLB. */
struct TlbConfig {
    int entries = 64;
    Cycle walkLatency = 30;
};

/**
 * Fully-associative LRU TLB. Each hardware context owns private
 * instruction and data TLBs (SMT processors typically partition or
 * tag them; private models the common case).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /**
     * Translate a page.
     * @param page page number (addr / 4096)
     * @return true on hit; on miss the entry is filled
     */
    bool access(Addr page);

    /** Latency added to the access on a miss. */
    Cycle walkLatency() const { return config_.walkLatency; }

  private:
    static constexpr Addr kNoPage = ~Addr{0};
    static constexpr std::int32_t kNil = -1;

    /** Bit mixer spreading page numbers over the hash table. */
    static std::uint64_t
    hashOf(Addr page)
    {
        std::uint64_t x = page;
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ull;
        x ^= x >> 33;
        return x;
    }

    /** Detach entry @p e from the LRU list. */
    void unlink(std::int32_t e);

    /** Append entry @p e at the MRU end of the list. */
    void pushMru(std::int32_t e);

    /** Insert a resident page into the hash table. */
    void tableInsert(Addr page, std::int32_t entry);

    /** Remove the (present) page of cell @p cell, back-shifting. */
    void tableErase(std::size_t cell);

    /** Table cell holding @p page; the page must be resident. */
    std::size_t cellOf(Addr page) const;

    TlbConfig config_;

    std::vector<Addr> pages_;         ///< per-entry resident page
    std::vector<std::int32_t> prev_;  ///< LRU list links (kNil = end)
    std::vector<std::int32_t> next_;
    std::int32_t lruHead_ = kNil;     ///< least recently used entry
    std::int32_t lruTail_ = kNil;     ///< most recently used entry

    std::vector<std::int32_t> table_;  ///< page -> entry, linear probing
    std::size_t tableMask_ = 0;

    /**
     * Repeat-access memo: the page of the last access(). After any
     * access the page's entry is the MRU list tail, and re-accessing
     * the MRU entry changes nothing, so a back-to-back translation of
     * the same page is a hit needing one compare. Dominant on the
     * data path: a 64B-line stream stays on one 4K page for ~512
     * consecutive accesses.
     */
    Addr lastPage_ = kNoPage;
};

} // namespace smite::sim

#endif // SMITE_SIM_TLB_H
