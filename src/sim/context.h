/**
 * @file
 * One SMT hardware context: private front end, in-flight uop window,
 * register dependence scoreboard, MSHRs and TLBs.
 *
 * Execution model (restricted out-of-order): every cycle the context
 * fetches uops from its UopSource into a window, then issues ready
 * uops oldest-first subject to (a) register dependences, (b) issue
 * port availability shared with the sibling context, (c) per-context
 * and per-core issue width, and (d) MSHR availability for loads that
 * miss. Uops retire (free their window slot) in program order once
 * issued. This is the cheapest model in which port contention, ILP
 * and memory-level parallelism all emerge naturally — exactly the
 * effects the paper's Rulers measure.
 *
 * The window is stored structure-of-arrays: flat per-slot arrays
 * (type, ready time, sequence number) instead of 32-byte slot
 * records, and readiness is propagated eagerly along forward
 * dependence edges at producer-issue time, so every unissued slot
 * carries an *exact* operand-ready cycle. Future ready cycles park in
 * a calendar ring that drains into a ready bitmap as time advances;
 * the issue scan enumerates only that bitmap, so its cost tracks the
 * number of issuable uops, not the window size, and once a scan has
 * rejected a uop for want of a free port it also drops every uop
 * whose ports are all taken. All of it is behavior-preserving
 * (enforced by test_golden_sim).
 */

#ifndef SMITE_SIM_CONTEXT_H
#define SMITE_SIM_CONTEXT_H

#include <array>
#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/counters.h"
#include "sim/memory_system.h"
#include "sim/tlb.h"
#include "sim/types.h"
#include "sim/uop.h"

namespace smite::sim {

/**
 * Position of the set bit of rank @p rank (0-based, counted from the
 * least significant end) in @p word, which must hold more than
 * @p rank set bits. Broadword and branch-free: per-byte popcounts and
 * their prefix sums (one multiply) locate the byte, and the same
 * compare over that byte's bits, spread one per byte, locates the
 * bit. It needs neither a popcount instruction nor `pdep`.
 */
constexpr int
selectBit(std::uint64_t word, int rank)
{
    constexpr std::uint64_t kOnes = 0x0101'0101'0101'0101ull;
    constexpr std::uint64_t kHighs = 0x80 * kOnes;
    // How many bytes of the non-decreasing per-byte sums are <= r:
    // the index of the first byte whose sum exceeds r. Both fit in
    // seven bits, so (r | 0x80) - sum never borrows across bytes and
    // keeps bit 7 exactly where sum <= r.
    const auto count_at_most = [](std::uint64_t sums, int r) {
        const std::uint64_t le =
            ((static_cast<std::uint64_t>(r) * kOnes | kHighs) - sums) &
            kHighs;
        return static_cast<int>(((le >> 7) * kOnes) >> 56);
    };
    std::uint64_t s = word - ((word >> 1) & 0x5555'5555'5555'5555ull);
    s = (s & 0x3333'3333'3333'3333ull) +
        ((s >> 2) & 0x3333'3333'3333'3333ull);
    s = (s + (s >> 4)) & 0x0f0f'0f0f'0f0f'0f0full;
    const std::uint64_t byte_sums = s * kOnes;  // byte b: bytes 0..b
    const int byte = count_at_most(byte_sums, rank);
    const int below =
        static_cast<int>(((byte_sums << 8) >> (8 * byte)) & 0xff);
    // Spread the byte's bits one per byte (0 or 1), then the same
    // prefix-sum select finds the bit.
    const std::uint64_t bits = (word >> (8 * byte)) & 0xff;
    const std::uint64_t spread =
        (((bits * kOnes) & 0x8040'2010'0804'0201ull) + 0x7f * kOnes) &
        kHighs;
    return 8 * byte + count_at_most((spread >> 7) * kOnes, rank - below);
}

/**
 * One hardware thread of an SMT core.
 */
class HardwareContext
{
  public:
    /**
     * Size of the dependence scoreboard ring. The window size plus
     * the maximum dependence distance (63) must stay below this.
     */
    static constexpr int kDepRing = 256;

    HardwareContext(const CoreConfig &core_config,
                    const TlbConfig &itlb_config,
                    const TlbConfig &dtlb_config);

    /**
     * Attach a uop stream and give the context a private address
     * space (all data/instruction addresses are offset so distinct
     * contexts contend for cache capacity, never share lines).
     *
     * @param source stream to execute, or nullptr to idle the context
     * @param addr_base offset added to every data address
     * @param pc_base offset added to every instruction address
     */
    void bind(UopSource *source, Addr addr_base, Addr pc_base);

    /** Is a workload bound to this context? */
    bool active() const { return source_ != nullptr; }

    /**
     * Fetch stage for this cycle.
     *
     * @param now current cycle
     * @param budget remaining core fetch slots this cycle
     * @param core owning core's index (for cache routing)
     * @param mem machine memory system
     * @return number of uops fetched (consumed from @p budget)
     */
    int fetch(Cycle now, int budget, int core, MemorySystem &mem);

    /**
     * Issue stage for this cycle.
     *
     * @param now current cycle
     * @param port_busy in/out bitmask of issue ports taken this cycle
     *        (shared between the sibling contexts of a core)
     * @param core_budget in/out remaining core-wide dispatch slots
     * @param core owning core's index
     * @param mem machine memory system
     * @param solo_on_core true when this is the only active context on
     *        its core this cycle. Enables the exact MSHR-bound scan
     *        skip with rotor replay (see replaySkippedScans): with no
     *        sibling, skipped scans see an empty port mask and a full
     *        dispatch budget every cycle, so their port-rotor effects
     *        are deterministic and can be replayed in bulk.
     * @return number of uops issued
     */
    int issue(Cycle now, unsigned &port_busy, int &core_budget, int core,
              MemorySystem &mem, bool solo_on_core);

    /**
     * Earliest future cycle at which this context's fetch or issue
     * stage could have any observable effect, given its state now —
     * or @p now itself when a stage would act this very cycle (no
     * skip possible). Ticks strictly before the bound are no-ops
     * except for the per-cycle fetch-stall counter, which the caller
     * replays in bulk via addFetchStallCycles() (see stallCounts()).
     * Inactive contexts never act (kNeverCycle).
     */
    Cycle
    idleBound(Cycle now) const
    {
        if (!active())
            return kNeverCycle;
        Cycle fetch_bound;
        if (waitingBranch_)
            fetch_bound = kNeverCycle;  // blocked until a (future) issue
        else if (fetchStallUntil_ > now)
            fetch_bound = fetchStallUntil_;
        else if (count_ == windowCap_)
            fetch_bound = kNeverCycle;  // full; frees only via issue
        else
            return now;  // fetch would insert uops this cycle
        if (count_ == 0)
            return fetch_bound;  // nothing to issue until a fetch
        if (noIssueBefore_ > now) {
            return fetch_bound < noIssueBefore_ ? fetch_bound
                                                : noIssueBefore_;
        }
        return now;  // issue would scan this cycle
    }

    /**
     * Would each cycle in an idle stretch starting at @p now bump the
     * fetch-stall counter? (Exactly the condition under which fetch()
     * counts a stalled cycle; constant across the stretch, since the
     * deciding state only changes when a stage acts.)
     */
    bool
    stallCounts(Cycle now) const
    {
        return active() && (waitingBranch_ || fetchStallUntil_ > now);
    }

    /** Bulk-account fetch-stall cycles for skipped idle ticks. */
    void addFetchStallCycles(Cycle n) { counters_.fetchStallCycles += n; }

    /** Counter block (mutable: memory system accounts into it). */
    CounterBlock &counters() { return counters_; }
    const CounterBlock &counters() const { return counters_; }

  private:
    /** Uops pulled per UopSource::nextBatch() call. */
    static constexpr int kFetchBatch = 16;

    /**
     * Find a free MSHR, or -1. Picks the lowest free index, like the
     * linear scan it replaced; when all MSHRs are busy the earliest
     * deadline is memoized so the (common) repeat query next cycle
     * fails without rescanning.
     */
    int freeMshr(Cycle now);

    /** Pick a free port from @p mask honouring @p port_busy, or -1. */
    int pickPort(unsigned mask, unsigned port_busy);

    /**
     * Fill @p out (one word per 64 window slots) with the slots whose
     * whole port mask lies inside @p port_busy: pickPort would reject
     * them. Nop slots (mask 0) never use a port and stay clear.
     */
    void portBlockedSlots(unsigned port_busy, std::uint64_t *out) const;

    /**
     * Resolve the forward dependence edges of an issuing producer at
     * window slot @p idx completing at @p finish: every registered
     * waiter folds the completion cycle into its ready time; waiters
     * whose last pending producer this was become exactly-timed.
     */
    void resolveWaiters(int idx, Cycle finish);

    /** File slot @p idx to become issuable at its ready cycle @p r. */
    void pushCalendar(int idx, Cycle r);

    /**
     * Move every slot whose ready cycle lies in (lastDrain_, now]
     * from the calendar into the ready bitmap.
     */
    void drainCalendar(Cycle now);

    /**
     * Earliest cycle after @p now with a calendar entry, or
     * kNeverCycle. May undershoot for entries a full calendar lap
     * ahead (alias) — an undershot bound only costs a futile rescan,
     * never a missed one.
     */
    Cycle calendarNextEvent(Cycle now) const;

    /**
     * Advance the port rotor as if @p scans additional zero-issue
     * scans had run, each making the pickPort call sequence recorded
     * in replayMasks_ against an empty busy mask. Valid only in the
     * solo-on-core regime, where skipped scans are cycle-for-cycle
     * identical to the recorded one (frozen window, empty port mask,
     * fresh budget). The rotor orbit has at most kNumPorts states, so
     * arbitrarily long spans replay in O(kNumPorts * |masks|).
     */
    void replaySkippedScans(Cycle scans);

    CoreConfig coreConfig_;
    Tlb itlb_;
    Tlb dtlb_;
    CounterBlock counters_;

    UopSource *source_ = nullptr;
    Addr addrBase_ = 0;
    Addr pcBase_ = 0;

    // ---------------------------------------------------------------
    // Window storage, structure-of-arrays. A slot's index is its
    // sequence number modulo the window capacity (inserts and seqs
    // advance in lockstep from bind()), so no slot->seq map is
    // needed beyond slotSeq_ itself.
    // ---------------------------------------------------------------

    /** Uop type per slot (selects the issue path). */
    std::vector<std::uint8_t> slotType_;

    /**
     * Port mask and execution latency per slot, resolved once at
     * fetch (portMask()/execLatency() of the slot's type). The issue
     * scan re-examines rejected candidates scan after scan, so it
     * reads these flat lanes instead of re-deriving both through the
     * per-candidate type switch. Values are identical by construction
     * — pure functions of the type — so issue order is unchanged.
     * slotPort_ is padded with zero (nop-like) bytes to whole 64-slot
     * words, so portBlockedSlots() compares whole vectors.
     */
    std::vector<std::uint8_t> slotPort_;
    std::vector<Cycle> slotLat_;

    /** Data address per slot (loads/stores only). */
    std::vector<Addr> slotAddr_;

    /** Sequence number per slot (dependence ring, branch resolve). */
    std::vector<std::uint64_t> slotSeq_;

    /**
     * Exact cycle the slot's operands are available. While any
     * producer is unissued the field holds the partial maximum over
     * already-known producer completions and slotPending_ is nonzero;
     * once the last producer issues it becomes exact and the slot
     * enters either the ready bitmap or the calendar below.
     */
    std::vector<Cycle> slotReady_;

    /** Count of unissued producers feeding the slot (0, 1 or 2). */
    std::vector<std::uint8_t> slotPending_;

    /**
     * Forward dependence edges, producer -> waiters. Edge id
     * `2*slot + operand`; slotWaiters_ heads an intrusive list per
     * producer slot, edgeNext_ chains it. Edges are drained exactly
     * once, when the producer issues, so recycled slots start clean.
     */
    std::vector<std::int32_t> slotWaiters_;
    std::vector<std::int32_t> edgeNext_;

    /**
     * One bit per window slot, set iff the slot holds an unissued
     * uop. Retirement and scheduler-depth ranking enumerate it with
     * count-trailing-zeros; issued-but-unretired "holes" cost
     * nothing. Invariant: bit set <=> slot in the window, unissued.
     */
    std::vector<std::uint64_t> unissuedBits_;

    /**
     * One bit per window slot, set iff the slot is unissued, has no
     * pending producers, and its exact ready cycle has passed (<= the
     * last drained cycle). The issue scan enumerates only this
     * bitmap, so scan cost tracks the number of issuable uops rather
     * than the window size. Slots whose ready cycle is still in the
     * future wait in the calendar below and are drained in as
     * simulated time reaches them.
     */
    std::vector<std::uint64_t> readyBits_;

    /**
     * Ready-time calendar: a ring of kCalendar cycle buckets, each an
     * intrusive list (calNext_) of slots whose exact ready cycle maps
     * to it. calOcc_ is a bitmap of non-empty buckets, used both to
     * drain elapsed buckets without touching empty ones and to find
     * the next future readiness event for the scan-skip bound. An
     * entry whose ready cycle aliases (ready > drain cycle, same
     * bucket) is re-pushed and fires one lap later.
     */
    static constexpr int kCalendar = 1024;
    std::vector<std::int32_t> calHead_;
    std::vector<std::int32_t> calNext_;
    std::array<std::uint64_t, kCalendar / 64> calOcc_{};
    Cycle lastDrain_ = 0;

    int windowCap_ = 0;
    int head_ = 0;
    int count_ = 0;
    int unissued_ = 0;  ///< set bits in unissuedBits_, kept incrementally

    /** Read-ahead buffer over source_ (order-preserving). */
    std::array<Uop, kFetchBatch> fetchBuf_{};
    int fetchBufPos_ = 0;
    int fetchBufLen_ = 0;

    /** Completion cycle per seq (mod kDepRing); kNeverCycle = pending. */
    std::array<Cycle, kDepRing> completion_{};
    std::uint64_t nextSeq_ = 0;

    Cycle fetchStallUntil_ = 0;
    bool waitingBranch_ = false;       ///< fetch blocked on mispredict
    std::uint64_t waitingBranchSeq_ = 0;

    std::vector<Cycle> mshrBusyUntil_;
    Cycle mshrAllBusyUntil_ = 0;  ///< no MSHR frees before this cycle

    /**
     * A failed issue scan with an unchanged window is deterministic:
     * nothing can issue again before the minimum retry bound the scan
     * computed, so until that cycle (or the next fetch into the
     * window, which resets this to 0) issue() returns without
     * scanning. Skipped scans have no observable effects — no
     * counters move and retirement would find nothing issued.
     */
    Cycle noIssueBefore_ = 0;
    Addr lastFetchLine_ = ~Addr{0};
    int portRotor_ = 0;  ///< rotates port preference for multi-port uops

    /**
     * Rotor-replay state for the solo-on-core exact MSHR skip. A
     * zero-issue scan whose only rejections are MSHR-full may set
     * noIssueBefore_ to the earliest MSHR deadline instead of now+1 —
     * but the reference execution would have re-run that scan every
     * cycle, advancing the port rotor via the rejected slots' pickPort
     * calls. replayMasks_ records that scan's pickPort masks in order;
     * the next real scan first replays the skipped-scan rotor
     * evolution so the rotor (and thus every later port assignment)
     * stays byte-identical to the reference.
     */
    std::vector<unsigned> replayMasks_;
    Cycle lastScanCycle_ = kNeverCycle;
    bool replayValid_ = false;
};

} // namespace smite::sim

#endif // SMITE_SIM_CONTEXT_H
