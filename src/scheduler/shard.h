/**
 * @file
 * Warehouse-scale cluster with streaming decision epochs.
 *
 * The Cluster in cluster.h mirrors the paper's evaluation: 4,000
 * identical servers, every epoch of its one decision-epoch loop
 * (static failure runs and online runs alike) re-scanning every
 * server in lockstep. 25-100x that fleet with machine heterogeneity
 * and continuous churn changes the shape of the problem: at 128k+
 * servers an epoch can no longer afford to touch every server, and
 * "place the batch job" becomes "pick a machine *and* a co-runner"
 * (cf. Navarro et al.'s thread-to-core allocation on heterogeneous
 * parts). The ShardedCluster here is the scheduler's second engine,
 * built for that. Its pairing assignment, failures and re-placement
 * differ from Cluster's by design (keyed per server, not sequential
 * draws; geometric keyed streams, not `server.fail` checks;
 * power-of-d probing, not round robin), so the engines stay apart:
 *
 * - **One serial calendar engine.** Per-server placement state, one
 *   churn *event calendar* (epoch -> servers with something due) and
 *   one incrementally-maintained integer aggregate (live contexts,
 *   instances, violations). Each epoch walks its due servers in the
 *   order they were filed, on the calling thread: a server's events
 *   touch only its own state plus integer sums and file follow-ups
 *   only in later epochs, and a repeated entry finds nothing left
 *   due, so the walk order cannot change a result. The per-epoch
 *   work is O(churn), too little for a thread fan-out to pay for.
 *
 * - **Streaming epochs.** Churn randomness is drawn from per-server
 *   keyed streams (keyed.h): instead of flipping a failure /
 *   departure coin for every server every epoch (the lockstep
 *   O(servers) scan), each event's *next occurrence epoch* is sampled
 *   geometrically when the previous one resolves and filed in the
 *   calendar. An epoch then touches only the servers with due events
 *   plus the probe targets of new arrivals — O(churn), not
 *   O(cluster). `shards == 1` deliberately keeps the lockstep
 *   full-scan engine as the equivalence reference (the same pattern
 *   as Machine::setReferenceTicking in the simulator): both engines
 *   consume the identical keyed streams, so their results are
 *   byte-identical and the speedup is honest, measured work
 *   avoidance (bench_scaleout_stress gates it).
 *
 * - **Churn.** Three independent keyed processes: per-server failure
 *   and recovery (as in Cluster's epoch loop, but
 *   placement-order-independent), per-placed-job departure (jobs
 *   finish), and a per-epoch stream of new job arrivals placed by
 *   sampled power-of-d-choices probing: d keyed probes, place on the
 *   admissible server whose *predicted* QoS after the placement is
 *   highest (ties to the lower server id). Guaranteed instances
 *   evicted by failures re-enter placement the same way; what fits
 *   nowhere admissible is lost capacity, preserving the conservation
 *   invariant of PR 5: placed - departures - lost == net placed.
 *
 * - **Mixed QoS tiers.** Latency-critical work holds its QoS target
 *   as before. *Guaranteed* batch instances are admitted only where
 *   predicted QoS at the new count meets TierPolicy::qosTarget.
 *   *Best-effort* fillers then absorb whatever freed capacity
 *   remains above TierPolicy::bestEffortFloor — an elastic backlog
 *   that grows into recovered or drained servers immediately and is
 *   preempted instantly when guaranteed work needs the contexts.
 *
 * - **Heterogeneous fleet.** Each server belongs to a MachineClass
 *   (Table 1's Sandy Bridge-EN and Ivy Bridge presets in
 *   bench_scaleout_stress) with its own context count, latency-app
 *   reservation and per-pairing QoS tables, so the same batch job
 *   predicts differently per machine and the probe placement picks
 *   both the machine and the co-runner.
 *
 * Everything observable is integer-accounted (instance counts,
 * violation counts, context totals); utilizations are derived from
 * the integer totals at the end. The full layer catalog, determinism
 * contract and worked examples live in docs/SCHEDULING.md.
 */

#ifndef SMITE_SCHEDULER_SHARD_H
#define SMITE_SCHEDULER_SHARD_H

#include <cstdint>
#include <string>
#include <vector>

#include "scheduler/cluster.h"

namespace smite::scheduler {

/**
 * One machine type of the heterogeneous fleet: its context budget,
 * the contexts reserved for its latency-critical application, and
 * the (latency, batch) pairing QoS tables measured on this hardware.
 */
struct MachineClass {
    std::string name;
    int latencyThreads = 6;      ///< contexts the latency app owns
    int contextsPerServer = 12;  ///< total hardware contexts
    /** QoS tables; every table must have maxInstances() entries. */
    std::vector<Pairing> pairings;

    /** Batch instances (any tier) one server of this class can host. */
    int maxInstances() const { return contextsPerServer - latencyThreads; }
};

/** QoS tiers of the batch work. */
struct TierPolicy {
    /** Predicted QoS a *guaranteed* placement must keep. */
    double qosTarget = 0.90;
    /**
     * Predicted QoS floor for *best-effort* fillers; capacity between
     * the two thresholds is filled opportunistically. <= 0 disables
     * the best-effort tier.
     */
    double bestEffortFloor = 0.0;
};

/** Churn knobs; all randomness is keyed per server (keyed.h). */
struct ChurnConfig {
    int arrivalsPerEpoch = 0;    ///< new guaranteed jobs per epoch
    double departProb = 0.0;     ///< per guaranteed job per epoch
    double failProb = 0.0;       ///< per server per epoch
    double recoverProb = 1.0;    ///< per down server per epoch
    int probesPerJob = 4;        ///< power-of-d-choices sample size
    std::uint64_t seed = 42;     ///< root of every keyed stream
};

/** Telemetry of one streaming decision epoch. */
struct StreamEpochStats {
    std::int64_t epoch = 0;
    std::int64_t failures = 0;      ///< servers downed this epoch
    std::int64_t recoveries = 0;    ///< servers recovered this epoch
    std::int64_t departures = 0;    ///< guaranteed jobs that finished
    std::int64_t arrivals = 0;      ///< new guaranteed jobs offered
    std::int64_t placed = 0;        ///< arrivals placed
    std::int64_t rejected = 0;      ///< arrivals with no admissible probe
    std::int64_t evictions = 0;     ///< guaranteed evicted by failures
    std::int64_t replacements = 0;  ///< evicted jobs re-placed
    std::int64_t lost = 0;          ///< evicted jobs lost
    std::int64_t fillerPlaced = 0;  ///< best-effort instances added
    std::int64_t fillerEvicted = 0; ///< best-effort instances removed
    std::int64_t events = 0;        ///< servers with due churn events
    std::int64_t liveServers = 0;   ///< up at epoch end
    std::int64_t guaranteedInstances = 0;  ///< at epoch end
    std::int64_t bestEffortInstances = 0;  ///< at epoch end
    double utilization = 0;         ///< busy / owned contexts
    double goodputUtilization = 0;  ///< compliant busy / owned
};

/** Final state plus whole-run totals of one runStream() call. */
struct StreamResult {
    // Final-epoch snapshot (integer-accounted).
    std::int64_t servers = 0;
    std::int64_t liveServers = 0;
    std::int64_t totalContexts = 0;       ///< owned capacity
    std::int64_t latencyContextsUp = 0;   ///< latency threads running
    std::int64_t guaranteedInstances = 0;
    std::int64_t bestEffortInstances = 0;
    std::int64_t coLocatedServers = 0;    ///< servers with guaranteed work
    std::int64_t violatingServers = 0;    ///< actual QoS below target
    std::int64_t goodGuaranteed = 0;      ///< guaranteed on compliant servers
    std::int64_t goodFillers = 0;         ///< fillers with actual QoS >= floor

    // Totals across the run (bootstrap fill included).
    std::int64_t arrivals = 0, placed = 0, rejected = 0;
    std::int64_t departures = 0, failures = 0, recoveries = 0;
    std::int64_t evictions = 0, replacements = 0, lost = 0;
    std::int64_t fillerPlaced = 0, fillerEvicted = 0;
    std::int64_t events = 0;

    /** Order-independent fold over the final per-server state. */
    std::uint64_t digest = 0;

    std::vector<StreamEpochStats> timeline;

    /** Busy contexts (latency + all batch) over owned contexts. */
    double utilization() const
    {
        return totalContexts == 0
                   ? 0.0
                   : static_cast<double>(latencyContextsUp +
                                         guaranteedInstances +
                                         bestEffortInstances) /
                         static_cast<double>(totalContexts);
    }

    /**
     * Goodput: like utilization(), but guaranteed instances on
     * QoS-violating servers and fillers whose servers fell below the
     * best-effort floor count as wasted work.
     */
    double goodputUtilization() const
    {
        return totalContexts == 0
                   ? 0.0
                   : static_cast<double>(latencyContextsUp +
                                         goodGuaranteed + goodFillers) /
                         static_cast<double>(totalContexts);
    }

    /** Fraction of co-located servers violating the QoS target. */
    double violationRate() const
    {
        return coLocatedServers == 0
                   ? 0.0
                   : static_cast<double>(violatingServers) /
                         static_cast<double>(coLocatedServers);
    }
};

/**
 * The heterogeneous, churn-driven cluster. Construction fixes the
 * fleet (classes, per-server pairing assignment — keyed, never
 * placement-ordered) and the engine; runStream() is the streaming
 * policy loop and may be called repeatedly (each call restarts from
 * an empty placement).
 */
class ShardedCluster
{
  public:
    /**
     * @param classes the machine classes of the fleet
     * @param serversPerClass servers of each class (same length;
     *        class c occupies a contiguous block of server ids)
     * @param shards 1 selects the lockstep full-scan reference
     *        engine, any other value in [2, servers] the calendar
     *        engine; the name is historical and nothing is
     *        partitioned. Results are byte-identical either way.
     * @param assignSeed keyed seed of the pairing assignment
     */
    ShardedCluster(std::vector<MachineClass> classes,
                   std::vector<std::int64_t> serversPerClass,
                   int shards = 1, std::uint64_t assignSeed = 42);

    /**
     * Run @p epochs streaming decision epochs from an empty
     * placement: bootstrap the best-effort fill, then per epoch
     * process due churn events (the full scan in ascending server
     * id, the calendar in filing order; the two agree because each
     * server's events are independent of every other server's),
     * re-place failure-evicted guaranteed jobs, place the epoch's
     * arrivals (both by keyed power-of-d-choices probing), and
     * snapshot the integer aggregate into the timeline. Runs on the
     * calling thread.
     */
    StreamResult runStream(const TierPolicy &tiers,
                           const ChurnConfig &churn, int epochs);

    std::int64_t servers() const
    {
        return static_cast<std::int64_t>(servers_.size());
    }

    /**
     * Does nothing: runStream() always runs on the calling thread.
     * Kept so existing callers compile.
     */
    void setThreads(int /*threads*/) {}

    /** Machine class of server @p s. */
    const MachineClass &machineClassOf(std::int64_t s) const;

    // Post-run introspection (state of the last runStream call).
    bool upAt(std::int64_t s) const
    {
        return servers_[static_cast<std::size_t>(s)].up != 0;
    }
    int guaranteedAt(std::int64_t s) const
    {
        return servers_[static_cast<std::size_t>(s)].g;
    }
    int bestEffortAt(std::int64_t s) const
    {
        return servers_[static_cast<std::size_t>(s)].b;
    }

    /**
     * Cross-check the incrementally-maintained aggregate against a
     * full recomputation from per-server state (test hook;
     * meaningful after runStream).
     */
    bool verifyAggregates() const;

  private:
    /** Precomputed per-pairing admission/violation tables. */
    struct PairTab {
        int cap = 0;
        int latencyThreads = 0;  ///< of the table's machine class
        /** predicted QoS at k+1 instances (the probe's ranking). */
        std::vector<double> predicted;        // index k in [0, cap)
        /** predicted QoS at k+1 meets qosTarget (guaranteed admit). */
        std::vector<std::uint8_t> admit;      // index k in [0, cap)
        /** largest total reachable from count j by floor-admissible
         * single steps (best-effort fill target). */
        std::vector<int> chainTo;             // index j in [0, cap]
        /** actual QoS at g guaranteed instances is below target. */
        std::vector<std::uint8_t> violating;  // index g in [0, cap]
        /** actual QoS at total k still meets the best-effort floor. */
        std::vector<std::uint8_t> goodFill;   // index k in [0, cap]
    };

    /**
     * What a probe or an aggregate update reads of one server, in
     * one 8-byte record. The table index also names the machine
     * class: tables are numbered class-major.
     */
    struct Server {
        std::uint32_t tab = 0;  ///< pairing table, index into tabs_
        std::uint8_t up = 1;
        std::uint8_t g = 0;     ///< guaranteed instances
        std::uint8_t b = 0;     ///< best-effort instances
    };
    static_assert(sizeof(Server) == 8);

    /** Integer aggregate of the fleet's live state. */
    struct Agg {
        std::int64_t upServers = 0, latencyContexts = 0;
        std::int64_t guaranteed = 0, bestEffort = 0;
        std::int64_t coLocated = 0, violating = 0;
        std::int64_t goodGuaranteed = 0, goodFillers = 0;

        /** Adds @p sign (+1 or -1) times @p c, field by field. */
        void add(const Agg &c, int sign);
        bool operator==(const Agg &) const = default;
    };

    Agg contributionOf(std::size_t s) const;
    void aggSub(std::size_t s) { agg_.add(contributionOf(s), -1); }
    void aggAdd(std::size_t s) { agg_.add(contributionOf(s), +1); }

    /**
     * File server @p s under @p epoch in the calendar. A no-op for
     * the full-scan reference, which never reads the calendar, and
     * for epochs at or past the end of the run.
     */
    void scheduleEvent(std::int64_t epoch, std::uint32_t s);
    void rebalanceFillers(std::size_t s, StreamEpochStats &stats);
    void processServerEvents(std::uint32_t s, std::int64_t epoch,
                             StreamEpochStats &stats);
    /** One keyed power-of-d-choices placement; true when placed. */
    bool placeGuaranteedJob(std::uint64_t salt, std::int64_t epoch,
                            std::int64_t jobIndex,
                            StreamEpochStats &stats);
    void resetRunState();
    void buildTabs(const TierPolicy &tiers);
    std::uint64_t stateDigest() const;

    // Fleet (fixed at construction).
    std::vector<MachineClass> classes_;
    std::int64_t totalContexts_ = 0;
    bool fullScan_ = false;  ///< shards == 1: the lockstep reference
    int maxSlots_ = 0;  ///< max maxInstances() over classes

    // Run state (rebuilt by each runStream call).
    std::vector<PairTab> tabs_;
    ChurnConfig churn_;
    std::int64_t epochsLimit_ = 0;  ///< events at/after this are moot
    /** Per server; `tab` is fixed at construction. */
    std::vector<Server> servers_;
    std::vector<std::int64_t> nextFail_, recoverAt_;
    std::vector<std::uint32_t> failSeq_, placeSeq_;
    std::vector<std::int64_t> depEpoch_;  ///< n * maxSlots_
    Agg agg_;
    /** epoch -> servers with something due (calendar engine only). */
    std::vector<std::vector<std::uint32_t>> calendar_;
};

} // namespace smite::scheduler

#endif // SMITE_SCHEDULER_SHARD_H
