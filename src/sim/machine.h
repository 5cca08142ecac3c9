/**
 * @file
 * Whole-machine model: N SMT cores, shared L3 and DRAM, plus the
 * co-location run protocols used throughout the paper (solo, SMT
 * pair, CMP pair, and many-instance mixes).
 */

#ifndef SMITE_SIM_MACHINE_H
#define SMITE_SIM_MACHINE_H

#include <memory>
#include <vector>

#include "sim/config.h"
#include "sim/counters.h"
#include "sim/memory_system.h"
#include "sim/replay.h"
#include "sim/smt_core.h"
#include "sim/types.h"
#include "sim/uop.h"

namespace smite::sim {

/** Default cycles to run before counters start accumulating. */
inline constexpr Cycle kDefaultWarmupCycles = 50'000;

/** Default measurement interval. */
inline constexpr Cycle kDefaultMeasureCycles = 200'000;

/**
 * Binds one uop stream to one hardware context for a run.
 */
struct Placement {
    int core = 0;           ///< physical core index
    int context = 0;        ///< SMT context slot on that core
    UopSource *source = nullptr;  ///< stream to execute (not owned)
};

/**
 * A complete machine. Machines are cheap to construct; every run()
 * builds fresh microarchitectural state so runs are independent and
 * reproducible.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config) : config_(config) {}

    /**
     * Execute the placed streams for warmup + measure cycles.
     *
     * Each placed context is given a disjoint address-space offset so
     * contexts contend for capacity but never share lines.
     *
     * When every placed source carries a stream identity
     * (UopSource::streamDigest() != 0) and replay is enabled
     * (sim/replay.h), a repeated run is served out of the run-level
     * ReplayStore without ticking — byte-identical to a live run by
     * contract — and a run simulated to fill the store is appended to
     * the run log, if one is set. The `sim.replay` fault site, when
     * armed, forces individual runs down the live path (chaos
     * coverage for the byte-identity claim).
     *
     * @return one CounterBlock per placement (measurement interval
     *         only), in placement order
     */
    std::vector<CounterBlock>
    run(const std::vector<Placement> &placements,
        Cycle warmup = kDefaultWarmupCycles,
        Cycle measure = kDefaultMeasureCycles) const;

    /** Run one stream alone on core 0, context 0. */
    CounterBlock runSolo(UopSource &app,
                         Cycle warmup = kDefaultWarmupCycles,
                         Cycle measure = kDefaultMeasureCycles) const;

    /**
     * SMT co-location: both streams on the two contexts of core 0.
     * @return counters for {app, corunner}
     */
    std::vector<CounterBlock>
    runPairSmt(UopSource &app, UopSource &corunner,
               Cycle warmup = kDefaultWarmupCycles,
               Cycle measure = kDefaultMeasureCycles) const;

    /**
     * CMP co-location: the streams on context 0 of cores 0 and 1
     * (sharing only L3 and DRAM).
     * @return counters for {app, corunner}
     */
    std::vector<CounterBlock>
    runPairCmp(UopSource &app, UopSource &corunner,
               Cycle warmup = kDefaultWarmupCycles,
               Cycle measure = kDefaultMeasureCycles) const;

    /** Machine description. */
    const MachineConfig &config() const { return config_; }

    /**
     * Force the reference cycle-by-cycle tick loop instead of the
     * event-driven wake list. Slow; exists so equivalence tests can
     * compare the two execution modes on identical inputs. Both modes
     * are byte-identical by construction (see docs/PERFORMANCE.md).
     */
    void setReferenceTicking(bool on) { referenceTicking_ = on; }

    /**
     * Append the runs simulated to fill the ReplayStore to @p log,
     * which copies of this machine share.
     */
    void setRunLog(std::shared_ptr<RunLog> log) { runLog_ = std::move(log); }

  private:
    /**
     * The actual simulation: build fresh state, prewarm, tick the
     * intervals, return the counter deltas and event-loop tallies. No
     * observability side effects — the run() wrapper replays the obs
     * tail so metric totals match whether the entry was computed or
     * replayed.
     */
    ReplayEntry runLive(const std::vector<Placement> &placements,
                        Cycle warmup, Cycle measure) const;

    MachineConfig config_;
    bool referenceTicking_ = false;
    std::shared_ptr<RunLog> runLog_;  ///< null: runs are not logged
};

} // namespace smite::sim

#endif // SMITE_SIM_MACHINE_H
