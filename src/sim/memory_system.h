/**
 * @file
 * Memory hierarchy of one machine: per-core L1I/L1D/L2, shared L3,
 * and a shared bandwidth-limited DRAM channel.
 *
 * SMT co-location shares every level (both contexts of a core probe
 * the same L1/L2); CMP co-location shares only the L3 and DRAM.
 */

#ifndef SMITE_SIM_MEMORY_SYSTEM_H
#define SMITE_SIM_MEMORY_SYSTEM_H

#include <vector>

#include "sim/cache.h"
#include "sim/config.h"
#include "sim/counters.h"
#include "sim/dram.h"
#include "sim/tlb.h"
#include "sim/types.h"

namespace smite::sim {

/**
 * Owns the cache arrays and DRAM channel of one machine and services
 * data and instruction accesses, accounting hits/misses into the
 * requesting context's counters.
 *
 * Latencies are cumulative per level (an L2 hit costs the configured
 * L2 latency in total, not L1 + L2). TLB walks add on top.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MachineConfig &config);

    /**
     * Service a load or store.
     *
     * @param core index of the requesting core
     * @param write true for stores
     * @param addr virtual data address
     * @param now issue cycle
     * @param ctr counters of the requesting context
     * @param dtlb data TLB of the requesting context
     * @return load-to-use latency in cycles
     */
    Cycle dataAccess(int core, bool write, Addr addr, Cycle now,
                     CounterBlock &ctr, Tlb &dtlb);

    /**
     * Service an instruction-line fetch.
     *
     * @return latency in cycles; equals the L1I hit latency when the
     *         line is resident (hidden by the pipeline)
     */
    Cycle instrAccess(int core, Addr pc, Cycle now, CounterBlock &ctr,
                      Tlb &itlb);

    /**
     * Functionally install a line into the shared L3 (no counters,
     * no timing). Used to pre-warm long-lived working sets that a
     * cycle-accurate warmup interval could never fill.
     */
    void prewarmData(Addr addr) { l3_.access(lineAddr(addr), false); }

    /**
     * prewarmData for @p count consecutive lines starting at @p addr
     * that the caller knows are not yet resident (the first prewarm
     * pass over a fresh machine): skips the L3 hit scans and batches
     * the inserts into one pass over the L3 arrays, with identical
     * resulting state.
     */
    void
    prewarmDataAbsentRange(Addr addr, std::uint64_t count)
    {
        l3_.insertAbsentRange(lineAddr(addr), count);
    }

    /** L1D hit latency (used to detect misses for MSHR occupancy). */
    Cycle l1dHitLatency() const { return config_.l1d.hitLatency; }

    /** L1I hit latency (fetch stalls only above this). */
    Cycle l1iHitLatency() const { return config_.l1i.hitLatency; }

    /** Shared DRAM channel (exposed for bandwidth statistics). */
    const DramChannel &dram() const { return dram_; }

  private:
    struct CoreCaches {
        SetAssocCache l1i;
        SetAssocCache l1d;
        SetAssocCache l2;
    };

    /** Handle a dirty victim cascading out of the L2. */
    void writebackFromL2(Addr line, Cycle now);

    /** Write-backs and (if inclusive) back-invalidation of an L3 victim. */
    void handleL3Eviction(const SetAssocCache::AccessResult &result,
                          Cycle now);

    /** Background next-line prefetch toward a core's L2. */
    void prefetchNextLine(int core, Addr line, Cycle now);

    MachineConfig config_;
    std::vector<CoreCaches> cores_;
    SetAssocCache l3_;
    DramChannel dram_;
};

} // namespace smite::sim

#endif // SMITE_SIM_MEMORY_SYSTEM_H
