/**
 * @file
 * Cluster-level scale-out model (paper Sections IV-C and IV-D).
 *
 * A warehouse-scale cluster of identical servers, each with six SMT
 * cores (twelve hardware contexts), runs one latency-sensitive
 * application per server on six contexts (the half-loaded baseline
 * that disallows SMT co-location). A co-location policy then decides,
 * per server, how many instances of a batch application to place on
 * the idle sibling contexts, subject to a QoS target.
 *
 * QoS is expressed uniformly as a fraction of solo performance
 * (average-performance QoS: 1 - degradation; tail QoS: solo p90
 * divided by degraded p90), so the same policies serve both metrics.
 *
 * Two kinds of run share one Cluster. The static policies (predicted,
 * oracle, random) decide once. The decision-epoch loop runs the
 * predicted placement through `server.fail` churn: every epoch it
 * recovers, fails and re-places, and an online run (runOnline) also
 * observes actual QoS, evicts, trims and probes. The static failure
 * run, runPredictedPolicyWithFailures, is the same loop with nothing
 * learned, so both replay the identical churn trace.
 *
 * This model is deliberately the paper's: homogeneous fleet, lockstep
 * full-cluster epochs, one batch candidate per server. The
 * warehouse-scale generalization — an event calendar, streaming churn
 * epochs, mixed QoS tiers, heterogeneous machines — lives in shard.h;
 * the layer-wide catalog is docs/SCHEDULING.md.
 */

#ifndef SMITE_SCHEDULER_CLUSTER_H
#define SMITE_SCHEDULER_CLUSTER_H

#include <cstdint>
#include <string>
#include <vector>

namespace smite::scheduler {

/** Contexts per server busy with the latency app before co-location. */
inline constexpr int kLatencyThreads = 6;

/** Hardware contexts per server: six SMT cores, two contexts each. */
inline constexpr int kContextsPerServer = 12;

/** Predicted and actual QoS of one (latency, batch, k) co-location. */
struct CoLocationOption {
    double predictedQos = 1.0;  ///< model-predicted QoS fraction
    double actualQos = 1.0;     ///< measured QoS fraction
};

/**
 * All co-location options of one (latency app, batch app) pairing:
 * element k-1 describes running k batch instances.
 */
struct Pairing {
    std::string latencyApp;
    std::string batchApp;
    std::vector<CoLocationOption> byInstances;
};

/** Aggregate outcome of a policy run over the cluster. */
struct PolicyResult {
    std::string policy;
    double qosTarget = 1.0;
    int servers = 0;
    int coLocatedServers = 0;
    int violatedServers = 0;
    int downServers = 0;         ///< servers down in the final epoch
    double totalInstances = 0;   ///< sum of co-located batch instances
    double compliantInstances = 0; ///< instances on non-violating servers
    double maxViolation = 0;     ///< worst normalized violation
    /** Max actual slowdown (1 - QoS) over the co-located servers. */
    double maxSlowdown = 0;
    /** Max - min actual slowdown over the co-located servers. */
    double slowdownSpread = 0;

    /**
     * Cluster utilization: busy contexts / all contexts. Servers down
     * in the final epoch run nothing — neither their latency threads
     * nor batch instances count as busy (their contexts still count
     * as owned capacity in the denominator).
     */
    double
    utilization() const
    {
        const double busy =
            static_cast<double>(servers - downServers) *
                kLatencyThreads +
            totalInstances;
        return busy / (static_cast<double>(servers) * kContextsPerServer);
    }

    /** Relative utilization improvement over the no-SMT baseline. */
    double
    utilizationImprovement() const
    {
        const double base = static_cast<double>(kLatencyThreads) /
                            kContextsPerServer;
        return (utilization() - base) / base;
    }

    /**
     * Goodput utilization: like utilization(), but batch instances
     * co-located on QoS-violating servers count as wasted work — an
     * operator must kill (or never should have placed) them. An
     * over-packing policy can beat a compliant one on raw
     * utilization; it cannot on goodput.
     */
    double
    goodputUtilization() const
    {
        const double busy =
            static_cast<double>(servers - downServers) *
                kLatencyThreads +
            compliantInstances;
        return busy / (static_cast<double>(servers) * kContextsPerServer);
    }

    /** Relative goodput improvement over the no-SMT baseline. */
    double
    goodputImprovement() const
    {
        const double base = static_cast<double>(kLatencyThreads) /
                            kContextsPerServer;
        return (goodputUtilization() - base) / base;
    }

    /** Fraction of co-located servers violating the target. */
    double
    violationRate() const
    {
        return coLocatedServers == 0
                   ? 0.0
                   : static_cast<double>(violatedServers) /
                         coLocatedServers;
    }

    /** Mean batch instances per server. */
    double
    meanInstances() const
    {
        return servers == 0 ? 0.0
                            : totalInstances /
                                  static_cast<double>(servers);
    }
};

/**
 * Optional load-aware admission for online runs: feed the scheduler
 * the knee QPS measured by the loadgen harness (bench_latency_vs_load
 * / loadgen::findKnee) per (pairing, co-location depth), and it
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
     * row per Cluster pairing, each of size Cluster::kMaxInstances + 1.
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

/** Tuning knobs of an online run. */
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
    LoadAwareConfig loadAware = {};
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

/** Telemetry of one decision epoch of an online run. */
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
};

/**
 * The cluster: a set of servers, each pre-assigned one latency
 * application and one candidate batch application (mirroring the
 * paper's setup of 4,000 servers, 1,000 per latency application).
 */
class Cluster
{
  public:
    /** Max batch instances a server can host: its spare contexts. */
    static constexpr int kMaxInstances =
        kContextsPerServer - kLatencyThreads;

    /**
     * @param pairings all measured/predicted (latency, batch)
     *        pairings, each with exactly kMaxInstances entries;
     *        servers draw their batch candidate from the pairings of
     *        their latency app
     * @param latencyApps names of the latency applications
     * @param serversPerApp servers dedicated to each latency app
     */
    Cluster(std::vector<Pairing> pairings,
            std::vector<std::string> latencyApps, int serversPerApp);

    /**
     * SMiTe policy: on each server, co-locate the largest k whose
     * *predicted* QoS meets the target.
     */
    PolicyResult runPredictedPolicy(double qos_target,
                                    const std::string &name = "SMiTe") const;

    /**
     * Oracle policy: the largest k whose *actual* QoS meets the
     * target (perfect knowledge upper bound).
     */
    PolicyResult runOraclePolicy(double qos_target) const;

    /**
     * The predicted policy under server failures: run @p epochs
     * decision epochs; in each, servers marked down by the
     * `server.fail` fault site (src/fault) evict their batch
     * instances, which the scheduler re-places *policy-aware* onto
     * surviving servers the model still predicts can absorb one more
     * instance (predictedQos at k+1 must meet the target); evictions
     * that fit nowhere admissible are counted as lost capacity.
     * Downed servers recover at the start of the next epoch and are
     * re-filled by the policy. Placement drift is tracked via the
     * `scheduler.server_failures` / `.evictions` / `.replacements` /
     * `.lost_instances` / `.recoveries` counters, and the result
     * reflects the final epoch's placement, with servers still down
     * in that epoch excluded from the busy-context accounting. With
     * no faults armed this is runPredictedPolicy(), byte-identical.
     */
    PolicyResult
    runPredictedPolicyWithFailures(double qos_target, int epochs,
                                   const std::string &name = "SMiTe") const;

    /**
     * The online policy: the failure epochs above, plus a loop over
     * the QoS the co-locations actually deliver. Each epoch it
     *   1. recovers last epoch's downed servers and re-fills them,
     *      bounded by what it has learned about their pairing,
     *   2. downs servers via `server.fail` (the same keys as
     *      runPredictedPolicyWithFailures, so both replay one trace),
     *   3. re-places the evicted instances onto survivors the model
     *      admits one more on, or observed running with headroom,
     *   4. observes every live co-location's actual QoS (optionally
     *      noised by the `scheduler.observe` fault site) and evicts
     *      one instance from every server observed below target,
     *      shrinking that server's learned cap,
     *   5. probes one more instance on up to probeBudget servers with
     *      at least `headroom` observed QoS slack (never in the final
     *      epoch, so every probe is observed before scoring), and
     *   6. with load-aware admission, grows best-effort fillers to
     *      the knee of the epoch's offered load and sheds them first
     *      under a keyed `des.arrival_burst` spike.
     * Under Objective::kFairness a trim pass between steps 4 and 5
     * removes one instance from every server whose observed slowdown
     * exceeds the epoch minimum by more than spreadTolerance. Learned
     * caps only shrink, so with noise-free observations the placement
     * converges. Every epoch publishes `scheduler.online.*` metrics
     * (docs/OBSERVABILITY.md) and one EpochStats row; the final
     * placement is scored against actual QoS exactly like the static
     * policies.
     */
    OnlineResult runOnline(double qos_target, OnlineConfig config = {},
                           const std::string &name = "SMiTe-online") const;

    /**
     * Random interference-oblivious policy: co-locates random
     * instance counts scaled to achieve the same total utilization
     * gain as @p match_instances total instances.
     */
    PolicyResult runRandomPolicy(double qos_target,
                                 double match_instances) const;

    /** Number of servers in the cluster. */
    int servers() const { return static_cast<int>(assignment_.size()); }

    /**
     * Use latency-overshoot normalization for violation magnitudes:
     * (t_actual - t_allowed) / t_allowed = target/actual - 1, which
     * exceeds 100% for deep tail violations (the paper's Figure 17
     * reports violations up to 110%). Default is QoS-fraction
     * normalization, (target - actual) / target.
     */
    void useLatencyOvershootNorm(bool enable)
    {
        latencyOvershootNorm_ = enable;
    }

  private:
    /** Seed of the batch-candidate assignment. */
    static constexpr std::uint64_t kAssignmentSeed = 42;
    /** Seed of runRandomPolicy's instance draws. */
    static constexpr std::uint64_t kRandomPolicySeed = 7;

    struct ServerSlot {
        int pairing;  ///< index into pairings_
    };

    /**
     * The decision-epoch loop behind runPredictedPolicyWithFailures
     * (@p learn false: no observation, eviction, trim or probe, and
     * no `scheduler.online.*` metrics) and runOnline (@p learn true).
     */
    OnlineResult runEpochs(double qos_target, OnlineConfig config,
                           const std::string &name, bool learn) const;

    PolicyResult finish(const std::string &name, double qos_target,
                        const std::vector<int> &instances,
                        int down_servers = 0) const;

    /** Largest k meeting @p target by prediction on server @p s. */
    int predictedInstancesFor(std::size_t s, double target) const;

    /** The pairing table assigned to server @p s. */
    const Pairing &pairingOf(std::size_t s) const
    {
        return pairings_[assignment_[s].pairing];
    }

    std::vector<Pairing> pairings_;
    std::vector<std::string> latencyApps_;
    std::vector<ServerSlot> assignment_;
    bool latencyOvershootNorm_ = false;
};

} // namespace smite::scheduler

#endif // SMITE_SCHEDULER_CLUSTER_H
