/**
 * @file
 * Per-hardware-context performance counters.
 *
 * The counter block doubles as the simulated PMU: the eleven rates the
 * paper's PMU baseline model uses (Section IV-B1) are derived from it
 * via pmuRates().
 */

#ifndef SMITE_SIM_COUNTERS_H
#define SMITE_SIM_COUNTERS_H

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "sim/types.h"
#include "sim/uop.h"

namespace smite::sim {

/** Number of PMU-derived rates exposed for the baseline model. */
inline constexpr int kNumPmuRates = 11;

/** Names of the PMU rates, in pmuRates() order. */
inline constexpr std::array<std::string_view, kNumPmuRates> kPmuRateNames = {
    "instructions/cycle",
    "iTLB-misses/cycle",
    "dTLB-load-misses/cycle",
    "dTLB-store-misses/cycle",
    "i-cache-misses/cycle",
    "L1D-hits/cycle",
    "L2-hits/cycle",
    "L2-misses/cycle",
    "L3-hits/cycle",
    "MEM-hits/cycle",
    "branch-mispredictions/cycle",
};

/**
 * Event counts accumulated by one hardware context during a run
 * (deltas over the measurement interval). The block is its 64-bit
 * counters and nothing else, in declaration order: CounterWords
 * below, which is also the order of a run-log record (sim/replay.h).
 */
struct CounterBlock {
    std::uint64_t cycles = 0;       ///< elapsed core cycles
    std::uint64_t uops = 0;         ///< uops issued (we retire at issue)
    std::array<std::uint64_t, kNumPorts> portIssued{};  ///< per-port uops

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;

    std::uint64_t l1dHits = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l3Hits = 0;
    std::uint64_t l3Misses = 0;     ///< == DRAM demand accesses
    std::uint64_t icacheMisses = 0;
    std::uint64_t itlbMisses = 0;
    std::uint64_t dtlbLoadMisses = 0;
    std::uint64_t dtlbStoreMisses = 0;

    std::uint64_t fetchStallCycles = 0;  ///< cycles front end was blocked

    /** Instructions per cycle over the interval. */
    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(uops) /
                                 static_cast<double>(cycles);
    }

    /** Utilization (issued uops per cycle) of one issue port. */
    double
    portUtilization(int port) const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(portIssued.at(port)) /
                                 static_cast<double>(cycles);
    }

    /**
     * The eleven per-cycle PMU rates of the paper's baseline model:
     * instructions, iTLB misses, dTLB load misses, dTLB store misses,
     * i-cache misses, L1D hits, L2 hits, L2 misses, L3 hits, MEM hits
     * and branch mispredictions, each divided by cycles.
     */
    std::array<double, kNumPmuRates>
    pmuRates() const
    {
        const double c = cycles == 0 ? 1.0 : static_cast<double>(cycles);
        return {
            static_cast<double>(uops) / c,
            static_cast<double>(itlbMisses) / c,
            static_cast<double>(dtlbLoadMisses) / c,
            static_cast<double>(dtlbStoreMisses) / c,
            static_cast<double>(icacheMisses) / c,
            static_cast<double>(l1dHits) / c,
            static_cast<double>(l2Hits) / c,
            static_cast<double>(l2Misses) / c,
            static_cast<double>(l3Hits) / c,
            static_cast<double>(l3Misses) / c,
            static_cast<double>(branchMispredicts) / c,
        };
    }
};

/**
 * A CounterBlock as its counters in declaration order; std::bit_cast
 * converts between the two. A new counter changes this size and with
 * it the run-log record, so it needs a new sim::kRunLogVersion.
 */
using CounterWords = std::array<std::uint64_t, 23>;

static_assert(sizeof(CounterBlock) == sizeof(CounterWords) &&
                  std::has_unique_object_representations_v<CounterBlock>,
              "CounterBlock must be exactly its 64-bit counters");

/** Element-wise difference (later - earlier), used for warmup. */
inline CounterBlock
operator-(const CounterBlock &later, const CounterBlock &earlier)
{
    auto d = std::bit_cast<CounterWords>(later);
    const auto e = std::bit_cast<CounterWords>(earlier);
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] -= e[i];
    return std::bit_cast<CounterBlock>(d);
}

} // namespace smite::sim

#endif // SMITE_SIM_COUNTERS_H
