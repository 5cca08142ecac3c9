/**
 * @file
 * Bandwidth-limited DRAM channel model.
 *
 * The channel serializes line transfers: each transfer occupies the
 * channel for a fixed number of cycles, so concurrent misses from
 * multiple contexts/cores queue behind each other. This is the shared
 * memory-bandwidth dimension of both CMP and SMT co-location.
 */

#ifndef SMITE_SIM_DRAM_H
#define SMITE_SIM_DRAM_H

#include <cstdint>

#include "sim/types.h"

namespace smite::sim {

/** Timing of the DRAM channel. */
struct DramConfig {
    Cycle accessLatency = 180;   ///< idle-channel load-to-use latency
    Cycle occupancyPerLine = 8;  ///< channel busy time per 64B transfer
};

/**
 * Single shared DRAM channel with first-come first-served queueing.
 */
class DramChannel
{
  public:
    explicit DramChannel(const DramConfig &config) : config_(config) {}

    /**
     * Issue a demand line transfer at @p now.
     * @return total latency until the data is available, including
     *         any time spent waiting for the channel
     */
    Cycle
    access(Cycle now)
    {
        const Cycle start = now > nextFree_ ? now : nextFree_;
        nextFree_ = start + config_.occupancyPerLine;
        ++transfers_;
        return (start - now) + config_.accessLatency;
    }

    /**
     * Account a write-back line transfer at @p now. Write-backs
     * consume channel bandwidth but nothing waits for them.
     */
    void
    writeback(Cycle now)
    {
        const Cycle start = now > nextFree_ ? now : nextFree_;
        nextFree_ = start + config_.occupancyPerLine;
        ++transfers_;
    }

    /** Total line transfers (demand + write-back) so far. */
    std::uint64_t transfers() const { return transfers_; }

  private:
    DramConfig config_;
    Cycle nextFree_ = 0;
    std::uint64_t transfers_ = 0;
};

} // namespace smite::sim

#endif // SMITE_SIM_DRAM_H
