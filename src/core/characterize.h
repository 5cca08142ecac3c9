/**
 * @file
 * The results of application characterization via Ruler co-location
 * (paper Section III-B2, Equations 1-2).
 *
 * For each sharing dimension i, the application runs next to Ruler_i
 * on the neighbouring hardware context (SMT) or a neighbouring core
 * (CMP). Its own IPC drop is its *sensitivity* Sen_i; the Ruler's IPC
 * drop is the application's *contentiousness* Con_i. The runs
 * themselves are Lab::characterization() (core/experiment.h).
 */

#ifndef SMITE_CORE_CHARACTERIZE_H
#define SMITE_CORE_CHARACTERIZE_H

#include <array>

#include "rulers/ruler.h"
#include "sim/counters.h"

namespace smite::core {

/** Where the co-runner sits relative to the application. */
enum class CoLocationMode {
    kSmt,  ///< sibling hardware context, same core
    kCmp,  ///< neighbouring core, shared L3/DRAM only
};

/** Name of a co-location mode. */
constexpr const char *
modeName(CoLocationMode mode)
{
    return mode == CoLocationMode::kSmt ? "SMT" : "CMP";
}

/**
 * An application's decoupled contention fingerprint: sensitivity and
 * contentiousness per sharing dimension (Equations 1 and 2).
 */
struct Characterization {
    std::array<double, rulers::kNumDimensions> sensitivity{};
    std::array<double, rulers::kNumDimensions> contentiousness{};
    /**
     * False when the measurement failed past the retry budget (fault
     * injection, see docs/ROBUSTNESS.md) and the arrays are
     * meaningless. Batch consumers must skip invalid entries.
     */
    bool valid = true;
};

/** Solo PMU profile of one application (the 11 rates of Eq. 9). */
using PmuProfile = std::array<double, sim::kNumPmuRates>;

} // namespace smite::core

#endif // SMITE_CORE_CHARACTERIZE_H
