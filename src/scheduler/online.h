/**
 * @file
 * Online, metrics-driven co-location scheduler.
 *
 * The static policies in cluster.h decide once, from the model's
 * predictions, and never look back — a mispredicted pairing violates
 * its QoS target forever, and a conservatively predicted one wastes
 * contexts forever. Production schedulers do neither: they watch the
 * QoS the co-locations actually deliver and adjust (cf. Navarro et
 * al.'s dynamic thread-to-core allocation and Subramanian et al.'s
 * slowdown-estimation-driven resource control). The OnlineScheduler
 * closes that loop over the same per-(latency, batch, k) QoS tables:
 *
 * Each decision epoch it
 *   1. recovers servers downed in the previous epoch and re-fills
 *      them with the policy's placement (bounded by what it has
 *      learned about the server's pairing),
 *   2. downs servers via the `server.fail` fault site — keyed
 *      identically to Cluster::runPredictedPolicyWithFailures, so the
 *      static and online policies can be compared under the exact
 *      same churn trace,
 *   3. re-places the evicted batch instances onto survivors it
 *      believes can absorb one more (model-admissible, or observed
 *      running with headroom),
 *   4. *observes* the actual QoS of every co-location — optionally
 *      perturbed by the `scheduler.observe` fault site, the analogue
 *      of noisy production latency telemetry — and evicts one
 *      instance from every server observed below target, capping the
 *      learned admissible count for that server, and
 *   5. probes one additional instance on up to `probeBudget` servers
 *      observed with at least `headroom` QoS slack (never in the
 *      final epoch, so every probe gets observed at least once), and
 *   6. with load-aware admission enabled (LoadAwareConfig), caps
 *      guaranteed placement at the measured knee for the design load
 *      and manages best-effort filler instances on the idle
 *      contexts: fillers grow to the knee of the current offered
 *      load and are shed — before any guaranteed instance is touched
 *      — when a keyed `des.arrival_burst` load spike pushes a server
 *      past its knee (graceful degradation).
 *
 * Under the fairness objective (OnlineConfig::objective) an extra
 * pass between steps 4 and 5 trims one instance from every server
 * whose observed slowdown exceeds the epoch's minimum by more than
 * the spread tolerance — even when it still meets the QoS target —
 * bounding max slowdown and slowdown spread at some utilization cost
 * (see docs/SCHEDULING.md).
 *
 * Convergence: per-server learned caps only shrink, and shrink
 * exactly when an observation contradicts the current count (a QoS
 * violation, or a fairness trim under kFairness), so with noise-free
 * observations the placement converges and stays put. Observation
 * noise can only make the caps conservative.
 *
 * Every step publishes `scheduler.online.*` counters/gauges through
 * src/obs (catalog in docs/OBSERVABILITY.md) and appends an
 * EpochStats row to the returned timeline, which harnesses fold into
 * the run report. The whole loop is serial and every fault decision
 * is keyed (via epochServerKey in keyed.h), so a run is
 * byte-deterministic for a given SMITE_FAULTS seed regardless of
 * SMITE_THREADS. For the warehouse-scale streaming variant of this
 * loop see shard.h and docs/SCHEDULING.md.
 */

#ifndef SMITE_SCHEDULER_ONLINE_H
#define SMITE_SCHEDULER_ONLINE_H

#include <string>
#include <vector>

#include "scheduler/cluster.h"

namespace smite::scheduler {

/**
 * Optional load-aware admission (ISSUE 8): feed the scheduler the
 * knee QPS measured by the loadgen harness (bench_latency_vs_load /
 * loadgen::findKnee) per (pairing, co-location depth), and it
 * (a) caps guaranteed admission at the deepest co-location whose
 * knee still clears the design load, and (b) fills the remaining
 * idle contexts with *best-effort filler* instances, shedding them —
 * never guaranteed instances — when a fault-injected load spike
 * (`des.arrival_burst`, keyed per epoch/server) pushes the offered
 * load past the knee of the current depth. The knee table is plain
 * data, so the scheduler stays independent of the loadgen library.
 */
struct LoadAwareConfig {
    /** Off by default: disabled runs are byte-identical to before. */
    bool enabled = false;

    /** Design offered load per server (QPS); must be positive. */
    double baseQps = 0.0;

    /**
     * Offered-load multiplier on a server hit by a keyed
     * `des.arrival_burst` spike this epoch (>= 1).
     */
    double spikeFactor = 2.0;

    /**
     * kneeByPairing[pairing][depth]: max QPS meeting the tail target
     * with `depth` co-located batch instances (depth 0 = solo), one
     * row per Cluster pairing, each of size maxInstances + 1.
     */
    std::vector<std::vector<double>> kneeByPairing;
};

/**
 * What the evict/probe loop optimizes for.
 *
 * kUtilization is the paper's objective: pack every context whose
 * co-location still meets the QoS target. kFairness adds the
 * MISE-Fair-style criterion (Subramanian et al.): no co-located
 * latency app should be slowed much more than the best-off one, so
 * besides the target-violation evictions the loop also trims servers
 * whose observed slowdown (1 - QoS) exceeds the epoch's minimum by
 * more than `spreadTolerance` — trading utilization for a bounded
 * max slowdown and slowdown spread.
 */
enum class Objective {
    kUtilization,  ///< pack to the QoS target (default, the paper)
    kFairness,     ///< additionally bound the slowdown spread
};

/** Name of a scheduling objective. */
constexpr const char *
objectiveName(Objective objective)
{
    return objective == Objective::kUtilization ? "utilization"
                                                : "fairness";
}

/** Tuning knobs of the online policy. */
struct OnlineConfig {
    /** Decision epochs to run (must be positive). */
    int epochs = 20;
    /**
     * Max probe placements per epoch; 0 derives servers/4. Bounding
     * the probe rate bounds how much QoS risk one epoch can add.
     */
    int probeBudget = 0;
    /**
     * Observed QoS slack above the target required before a server
     * is probed with one more instance.
     */
    double headroom = 0.02;
    /** Load-aware admission; inert unless loadAware.enabled. */
    LoadAwareConfig loadAware;
    /** Optimization objective; kUtilization is byte-identical to the
        pre-fairness scheduler. */
    Objective objective = Objective::kUtilization;
    /**
     * Fairness only: max allowed excess of a server's observed
     * slowdown over the epoch's minimum before one instance is
     * trimmed (absolute slowdown, e.g. 0.05 = five QoS points).
     */
    double spreadTolerance = 0.05;
};

/** Telemetry of one OnlineScheduler decision epoch. */
struct EpochStats {
    int epoch = 0;             ///< epoch index, 0-based
    int failures = 0;          ///< servers downed this epoch
    int recoveries = 0;        ///< servers recovered at epoch start
    int failureEvictions = 0;  ///< instances evicted by failures
    int replacements = 0;      ///< evicted instances re-placed
    int lostInstances = 0;     ///< evicted instances lost
    int observedViolations = 0;///< observations below target
    int qosEvictions = 0;      ///< instances evicted on observed QoS
    int probes = 0;            ///< probe instances placed
    int liveServers = 0;       ///< servers up at epoch end
    double totalInstances = 0; ///< guaranteed batch instances at end
    double utilization = 0;    ///< live-cluster utilization at end
    // Load-aware admission (all zero when loadAware.enabled is off):
    int loadSpikes = 0;        ///< servers spiked by des.arrival_burst
    int fillersShed = 0;       ///< filler instances shed this epoch
    int loadViolations = 0;    ///< guaranteed tiers past their knee
    double fillerInstances = 0;///< best-effort fillers at epoch end
    // Fairness telemetry (recorded under either objective; the
    // fairness objective is what *acts* on it):
    int fairnessEvictions = 0; ///< instances trimmed for fairness
    double maxSlowdown = 0;    ///< max observed slowdown this epoch
    double slowdownSpread = 0; ///< max - min observed slowdown
};

/** Final placement plus the per-epoch trajectory that produced it. */
struct OnlineResult {
    /** Final-epoch accounting, comparable to the static policies. */
    PolicyResult final;
    /** One row per decision epoch, in order. */
    std::vector<EpochStats> timeline;
    /** Max actual slowdown over the final placement's co-locations. */
    double finalMaxSlowdown = 0.0;
    /** Max - min actual slowdown over the final co-locations. */
    double finalSlowdownSpread = 0.0;
};

/**
 * The time-stepped policy loop. Holds a reference to the Cluster
 * whose pairings it schedules over; the Cluster must outlive it.
 */
class OnlineScheduler
{
  public:
    explicit OnlineScheduler(const Cluster &cluster,
                             OnlineConfig config = {});

    /**
     * Run the epoch loop against @p qos_target. Starts from the
     * static predicted placement, then observes and adjusts as
     * described in the file header. The returned PolicyResult scores
     * the final epoch's placement against *actual* QoS, exactly like
     * the static policies, so the three are directly comparable.
     */
    OnlineResult run(double qos_target,
                     const std::string &name = "SMiTe-online") const;

  private:
    const Cluster &cluster_;
    OnlineConfig config_;
};

} // namespace smite::scheduler

#endif // SMITE_SCHEDULER_ONLINE_H
