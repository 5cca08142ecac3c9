/**
 * @file
 * Application characterization via Ruler co-location
 * (paper Section III-B2, Equations 1-2).
 *
 * For each sharing dimension i, the application runs next to Ruler_i
 * on the neighbouring hardware context (SMT) or a neighbouring core
 * (CMP). Its own IPC drop is its *sensitivity* Sen_i; the Ruler's IPC
 * drop is the application's *contentiousness* Con_i.
 */

#ifndef SMITE_CORE_CHARACTERIZE_H
#define SMITE_CORE_CHARACTERIZE_H

#include <array>
#include <vector>

#include "rulers/ruler.h"
#include "sim/machine.h"
#include "workload/generator.h"
#include "workload/profile.h"

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

/**
 * Runs the Ruler co-location protocol on a machine.
 */
class Characterizer
{
  public:
    /**
     * @param machine machine model to measure on
     * @param suite one Ruler per sharing dimension
     * @param warmup cycles before counters accumulate
     * @param measure measurement interval in cycles
     */
    Characterizer(const sim::Machine &machine,
                  std::vector<rulers::Ruler> suite,
                  sim::Cycle warmup = sim::kDefaultWarmupCycles,
                  sim::Cycle measure = sim::kDefaultMeasureCycles);

    /**
     * Characterize an application.
     *
     * @param profile the application
     * @param mode SMT (sibling context) or CMP (neighbouring core)
     * @param threads instances of the application, one per core (the
     *        paper uses 6 for SMT / 3 for CMP CloudSuite runs); an
     *        equal number of Ruler instances co-locates with them
     */
    Characterization characterize(const workload::WorkloadProfile &profile,
                                  CoLocationMode mode,
                                  int threads = 1) const;

    /** Solo IPC of an application (aggregate over @p threads). */
    double soloIpc(const workload::WorkloadProfile &profile,
                   int threads = 1) const;

    /** The ruler suite in dimension order. */
    const std::vector<rulers::Ruler> &suite() const { return suite_; }

    /** The machine under test. */
    const sim::Machine &machine() const { return machine_; }

    /**
     * Aggregate IPC of @p threads instances of Ruler @p d running
     * alone in their co-location slots. Independent of the
     * application, so after its first run every characterize() call
     * replays it from the ReplayStore. Public so batch drivers can
     * warm all dimensions in parallel before fanning out
     * applications.
     */
    double rulerBaseline(size_t d, CoLocationMode mode,
                         int threads) const;

  private:
    /** Placements of an N-thread app (context 0 of cores 0..N-1). */
    std::vector<sim::Placement>
    appPlacements(std::vector<workload::ProfileUopSource> &threads) const;

    const sim::Machine &machine_;
    std::vector<rulers::Ruler> suite_;
    sim::Cycle warmup_;
    sim::Cycle measure_;
};

} // namespace smite::core

#endif // SMITE_CORE_CHARACTERIZE_H
