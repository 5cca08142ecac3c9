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

/** What one policy decided for one server. */
struct ServerDecision {
    int latencyApp = 0;   ///< index into the latency app list
    int pairing = 0;      ///< index into the server's pairing
    int instances = 0;    ///< batch instances co-located (0 = none)
    double actualQos = 1.0;
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
    double sumViolation = 0;     ///< sum of (target-actual)/target
    double maxViolation = 0;     ///< worst normalized violation

    int contextsPerServer = 12;
    int latencyThreads = 6;

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
                latencyThreads +
            totalInstances;
        return busy / (static_cast<double>(servers) * contextsPerServer);
    }

    /** Relative utilization improvement over the no-SMT baseline. */
    double
    utilizationImprovement() const
    {
        const double base = static_cast<double>(latencyThreads) /
                            contextsPerServer;
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
                latencyThreads +
            compliantInstances;
        return busy / (static_cast<double>(servers) * contextsPerServer);
    }

    /** Relative goodput improvement over the no-SMT baseline. */
    double
    goodputImprovement() const
    {
        const double base = static_cast<double>(latencyThreads) /
                            contextsPerServer;
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
 * The cluster: a set of servers, each pre-assigned one latency
 * application and one candidate batch application (mirroring the
 * paper's setup of 4,000 servers, 1,000 per latency application).
 */
class Cluster
{
  public:
    /**
     * @param pairings all measured/predicted (latency, batch)
     *        pairings; servers draw their batch candidate from the
     *        pairings of their latency app
     * @param latencyApps names of the latency applications
     * @param serversPerApp servers dedicated to each latency app
     * @param latencyThreads busy contexts per server before
     *        co-location
     * @param contextsPerServer total hardware contexts per server
     * @param seed RNG seed for the batch-candidate assignment
     */
    Cluster(std::vector<Pairing> pairings,
            std::vector<std::string> latencyApps, int serversPerApp,
            int latencyThreads = 6, int contextsPerServer = 12,
            std::uint64_t seed = 42);

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
     * Random interference-oblivious policy: co-locates random
     * instance counts scaled to achieve the same total utilization
     * gain as @p match_instances total instances.
     */
    PolicyResult runRandomPolicy(double qos_target,
                                 double match_instances,
                                 std::uint64_t seed = 7) const;

    /** Number of servers in the cluster. */
    int servers() const { return static_cast<int>(assignment_.size()); }

    /** Max batch instances a server can host. */
    int maxInstances() const { return maxInstances_; }

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
    friend class OnlineScheduler;

    struct ServerSlot {
        int pairing;  ///< index into pairings_
    };

    PolicyResult finish(const std::string &name, double qos_target,
                        const std::vector<int> &instances,
                        int down_servers = 0) const;

    /** Largest k meeting @p target by prediction on server @p s. */
    int predictedInstancesFor(std::size_t s, double target) const;

    /**
     * True when the model predicts server @p s can absorb one more
     * batch instance on top of @p current: capacity remains and the
     * predicted QoS at current+1 still meets @p target.
     */
    bool modelAdmitsOneMore(std::size_t s, double target,
                            int current) const;

    /** The pairing table assigned to server @p s. */
    const Pairing &pairingOf(std::size_t s) const
    {
        return pairings_[assignment_[s].pairing];
    }

    std::vector<Pairing> pairings_;
    std::vector<std::string> latencyApps_;
    std::vector<ServerSlot> assignment_;
    int latencyThreads_;
    int contextsPerServer_;
    int maxInstances_;
    bool latencyOvershootNorm_ = false;
};

} // namespace smite::scheduler

#endif // SMITE_SCHEDULER_CLUSTER_H
