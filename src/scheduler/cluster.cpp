#include "scheduler/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "fault/fault.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/rng.h"

namespace smite::scheduler {

namespace {

/**
 * The fault-site key of @p server in decision epoch @p epoch. Every
 * `server.fail`, `scheduler.observe` and `des.arrival_burst` decision
 * of the epoch loop is keyed by it, so a run is a pure function of
 * the armed seeds and static and online runs replay one churn trace.
 */
std::string
epochServerKey(int epoch, std::size_t server)
{
    return "epoch" + std::to_string(epoch) + "#server" +
           std::to_string(server);
}

} // namespace

Cluster::Cluster(std::vector<Pairing> pairings,
                 std::vector<std::string> latencyApps, int serversPerApp)
    : pairings_(std::move(pairings)),
      latencyApps_(std::move(latencyApps))
{
    if (pairings_.empty() || latencyApps_.empty() || serversPerApp <= 0)
        throw std::invalid_argument("empty cluster configuration");
    for (const Pairing &p : pairings_) {
        if (static_cast<int>(p.byInstances.size()) != kMaxInstances)
            throw std::invalid_argument(
                "pairing tables must have one entry per spare context");
    }

    // Each server gets a random batch candidate among the pairings
    // of its latency application.
    workload::Rng rng(kAssignmentSeed);
    for (const std::string &app : latencyApps_) {
        std::vector<int> candidates;
        for (size_t i = 0; i < pairings_.size(); ++i) {
            if (pairings_[i].latencyApp == app)
                candidates.push_back(static_cast<int>(i));
        }
        if (candidates.empty()) {
            throw std::invalid_argument(
                "no pairings for latency app " + app);
        }
        for (int s = 0; s < serversPerApp; ++s) {
            assignment_.push_back(ServerSlot{
                candidates[rng.nextBelow(candidates.size())]});
        }
    }
}

PolicyResult
Cluster::finish(const std::string &name, double qos_target,
                const std::vector<int> &instances,
                int down_servers) const
{
    PolicyResult result;
    result.policy = name;
    result.qosTarget = qos_target;
    result.servers = servers();
    result.downServers = down_servers;

    double min_slowdown = std::numeric_limits<double>::infinity();
    double max_slowdown = -min_slowdown;
    for (size_t s = 0; s < assignment_.size(); ++s) {
        const int k = instances[s];
        if (k <= 0)
            continue;
        const double actual = pairingOf(s).byInstances[k - 1].actualQos;
        const double slowdown = 1.0 - actual;
        ++result.coLocatedServers;
        result.totalInstances += k;
        min_slowdown = std::min(min_slowdown, slowdown);
        max_slowdown = std::max(max_slowdown, slowdown);
        if (actual >= qos_target)
            result.compliantInstances += k;
        if (actual < qos_target) {
            ++result.violatedServers;
            const double magnitude =
                latencyOvershootNorm_
                    ? qos_target / std::max(actual, 1e-9) - 1.0
                    : (qos_target - actual) / qos_target;
            result.maxViolation =
                std::max(result.maxViolation, magnitude);
        }
    }
    if (result.coLocatedServers > 0) {
        result.maxSlowdown = max_slowdown;
        result.slowdownSpread = max_slowdown - min_slowdown;
    }

    // One policy run over the cluster is the scheduler's decision
    // epoch; the counters aggregate across epochs, the gauge holds
    // the most recent epoch's utilization.
    obs::Registry &registry = obs::Registry::global();
    registry.counter("scheduler.policies").add();
    registry.counter("scheduler.decisions")
        .add(static_cast<std::uint64_t>(result.servers));
    registry.counter("scheduler.admissions")
        .add(static_cast<std::uint64_t>(result.coLocatedServers));
    registry.counter("scheduler.violations")
        .add(static_cast<std::uint64_t>(result.violatedServers));
    registry.counter("scheduler.batch_instances")
        .add(static_cast<std::uint64_t>(result.totalInstances));
    registry.gauge("scheduler.utilization").set(result.utilization());
    return result;
}

int
Cluster::predictedInstancesFor(std::size_t s, double target) const
{
    const Pairing &pairing = pairingOf(s);
    for (int k = kMaxInstances; k >= 1; --k) {
        if (pairing.byInstances[k - 1].predictedQos >= target)
            return k;
    }
    return 0;
}

PolicyResult
Cluster::runPredictedPolicy(double qos_target,
                            const std::string &name) const
{
    obs::Span span("scheduler.policy", name);
    std::vector<int> instances(assignment_.size(), 0);
    for (size_t s = 0; s < assignment_.size(); ++s)
        instances[s] = predictedInstancesFor(s, qos_target);
    return finish(name, qos_target, instances);
}

PolicyResult
Cluster::runPredictedPolicyWithFailures(double qos_target, int epochs,
                                        const std::string &name) const
{
    return runEpochs(qos_target, OnlineConfig{.epochs = epochs}, name,
                     false)
        .final;
}

OnlineResult
Cluster::runOnline(double qos_target, OnlineConfig config,
                   const std::string &name) const
{
    return runEpochs(qos_target, std::move(config), name, true);
}

OnlineResult
Cluster::runEpochs(double qos_target, OnlineConfig config,
                   const std::string &name, bool learn) const
{
    obs::Span span("scheduler.policy", learn ? name : name + "+failures");
    const LoadAwareConfig &la = config.loadAware;
    if (config.epochs < 1)
        throw std::invalid_argument("epochs must be positive");
    if (config.probeBudget <= 0)
        config.probeBudget = std::max(1, servers() / 4);
    if (config.headroom < 0.0)
        throw std::invalid_argument("headroom must be non-negative");
    if (config.spreadTolerance < 0.0)
        throw std::invalid_argument(
            "spreadTolerance must be non-negative");
    if (la.enabled) {
        if (la.baseQps <= 0.0)
            throw std::invalid_argument(
                "load-aware admission needs a positive baseQps");
        if (la.spikeFactor < 1.0)
            throw std::invalid_argument("spikeFactor must be >= 1");
        if (la.kneeByPairing.size() != pairings_.size())
            throw std::invalid_argument(
                "knee table must cover every pairing");
        for (const auto &row : la.kneeByPairing) {
            if (row.size() != std::size_t{kMaxInstances} + 1)
                throw std::invalid_argument(
                    "knee table rows must span depths 0..maxInstances");
        }
    }

    obs::Registry &registry = obs::Registry::global();
    fault::FaultPlan &faults = fault::FaultPlan::global();
    const bool observe_noise =
        faults.enabled() && faults.armed("scheduler.observe");
    const bool load_aware = la.enabled;
    const bool spike_site =
        load_aware && faults.enabled() &&
        faults.armed("des.arrival_burst");
    const bool fairness = config.objective == Objective::kFairness;
    const std::size_t n = assignment_.size();

    // Knee of server s at co-location depth d (d = 0 is solo).
    auto kneeAt = [&](std::size_t s, int depth) {
        return la.kneeByPairing[static_cast<std::size_t>(
            assignment_[s].pairing)][static_cast<std::size_t>(depth)];
    };

    // What the policy has learned: the largest instance count each
    // server has not been observed violating at (or trimmed from).
    // It starts at the deepest co-location whose measured knee still
    // clears the *design* load, and only shrinks, so the placement
    // converges instead of oscillating around the oracle's count.
    std::vector<int> cap(n, kMaxInstances);
    if (load_aware) {
        for (std::size_t s = 0; s < n; ++s) {
            int d = 0;
            while (d < kMaxInstances && kneeAt(s, d + 1) >= la.baseQps)
                ++d;
            cap[s] = d;
        }
    }

    // Start from the static predicted placement; everything after is
    // reaction to churn and observations.
    std::vector<int> instances(n, 0);
    for (std::size_t s = 0; s < n; ++s)
        instances[s] = std::min(predictedInstancesFor(s, qos_target),
                                cap[s]);

    // Last observation, used to let churn re-placement target servers
    // the model under-rates but observation cleared for one more:
    // valid only while the server still runs the observed count. A
    // static run observes nothing, so its caps stay at the maximum,
    // observed_at stays -1, and steps 1-3 are the plain failure loop.
    std::vector<double> observed_slack(n, 0.0);
    std::vector<int> observed_at(n, -1);

    std::vector<bool> down(n, false);
    // Best-effort filler instances on the idle contexts (load-aware
    // only): first shed, never guaranteed-protected.
    std::vector<int> fillers(n, 0);
    OnlineResult result;
    result.timeline.reserve(static_cast<std::size_t>(config.epochs));

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        EpochStats stats;
        stats.epoch = epoch;

        // 1. Recovery: downed servers rejoin and are re-filled with
        // the policy placement, bounded by the learned cap.
        for (std::size_t s = 0; s < n; ++s) {
            if (!down[s])
                continue;
            down[s] = false;
            instances[s] =
                std::min(predictedInstancesFor(s, qos_target), cap[s]);
            observed_at[s] = -1;
            ++stats.recoveries;
        }

        // 2. Failures, keyed per (epoch, server): a pure function of
        // the armed seed.
        for (std::size_t s = 0; s < n; ++s) {
            if (!faults.enabled() ||
                !faults.shouldInject("server.fail",
                                     epochServerKey(epoch, s)))
                continue;
            down[s] = true;
            ++stats.failures;
            stats.failureEvictions += instances[s];
            instances[s] = 0;
            fillers[s] = 0;
            observed_at[s] = -1;
        }

        // 3. Policy-aware re-placement of the evicted instances:
        // survivors below their learned cap that either the model
        // admits at k+1 or the last observation cleared with probe
        // headroom at the current count. Each instance goes to the
        // first such server from the front (deterministic); the
        // remainder is lost capacity. A placement changes only its
        // own server, so the next instance's scan resumes there.
        const auto admitsOneMore = [&](std::size_t s) {
            if (down[s] || instances[s] >= cap[s])
                return false;
            const std::size_t k = static_cast<std::size_t>(instances[s]);
            return pairingOf(s).byInstances[k].predictedQos >=
                       qos_target ||
                   (observed_at[s] == instances[s] &&
                    observed_slack[s] >= config.headroom);
        };
        std::size_t host = 0;
        for (int i = 0; i < stats.failureEvictions; ++i) {
            while (host < n && !admitsOneMore(host))
                ++host;
            if (host < n) {
                ++instances[host];
                ++stats.replacements;
            } else {
                ++stats.lostInstances;
            }
        }

        // 3b. Load-aware: determine each server's offered load this
        // epoch — the design load, or spikeFactor times it when the
        // keyed `des.arrival_burst` site fires for (epoch, server) —
        // and make room for any guaranteed instances the churn flow
        // just placed by shedding fillers (guaranteed work always
        // wins the contexts). A guaranteed tier whose own knee cannot
        // carry the offered load is a load violation: it is *counted*
        // (the operator must resize the tier), never evicted.
        std::vector<double> offered;
        if (load_aware) {
            offered.assign(n, la.baseQps);
            for (std::size_t s = 0; s < n; ++s) {
                if (down[s])
                    continue;
                if (spike_site &&
                    faults.shouldInject("des.arrival_burst",
                                        epochServerKey(epoch, s))) {
                    offered[s] = la.baseQps * la.spikeFactor;
                    ++stats.loadSpikes;
                }
                const int fit = kMaxInstances - instances[s];
                if (fillers[s] > fit) {
                    stats.fillersShed += fillers[s] - fit;
                    fillers[s] = fit;
                }
                if (kneeAt(s, instances[s]) < offered[s])
                    ++stats.loadViolations;
            }
        }

        // 4. Online runs observe every live *guaranteed*
        // co-location's actual QoS (optionally through the
        // scheduler.observe noise site) and evict one instance from
        // every server observed below target, shrinking its learned
        // cap so the count is never retried. Fillers carry no
        // batch-QoS guarantee — that is what makes them best-effort
        // — so they live outside this loop; the knee table (step 6)
        // is the constraint that governs them.
        std::vector<double> slowdown(n, 0.0);
        int observations = 0;
        double min_slowdown = std::numeric_limits<double>::infinity();
        double max_slowdown = -min_slowdown;
        for (std::size_t s = 0; s < n; ++s) {
            if (!learn || down[s] || instances[s] <= 0)
                continue;
            const std::size_t k = static_cast<std::size_t>(instances[s]);
            double observed = pairingOf(s).byInstances[k - 1].actualQos;
            if (observe_noise) {
                const std::string key = epochServerKey(epoch, s);
                if (faults.shouldInject("scheduler.observe", key)) {
                    observed *= std::max(
                        0.0,
                        1.0 + faults.gaussian("scheduler.observe", key));
                }
            }
            ++observations;
            slowdown[s] = 1.0 - observed;
            min_slowdown = std::min(min_slowdown, slowdown[s]);
            max_slowdown = std::max(max_slowdown, slowdown[s]);
            if (observed < qos_target) {
                ++stats.observedViolations;
                ++stats.qosEvictions;
                --instances[s];
                cap[s] = std::min(cap[s], instances[s]);
                observed_at[s] = -1;
            } else {
                observed_slack[s] = observed - qos_target;
                observed_at[s] = instances[s];
            }
        }
        if (observations > 0) {
            stats.maxSlowdown = max_slowdown;
            stats.slowdownSpread = max_slowdown - min_slowdown;
        }

        // 4b. Fairness pass: trim one instance from every server
        // observed this epoch (and not just evicted) whose slowdown
        // exceeds the epoch's minimum by more than the spread
        // tolerance, even though it met the QoS target. The learned
        // cap shrinks with it, so — like QoS evictions — a trimmed
        // count is never retried and the loop converges to a
        // placement whose slowdown spread fits the tolerance band.
        if (fairness) {
            for (std::size_t s = 0; s < n; ++s) {
                if (observed_at[s] != instances[s] || instances[s] <= 0 ||
                    slowdown[s] <= min_slowdown + config.spreadTolerance)
                    continue;
                --instances[s];
                cap[s] = std::min(cap[s], instances[s]);
                observed_at[s] = -1;
                ++stats.fairnessEvictions;
            }
        }

        // 5. Probe: place one more instance on the servers with the
        // most observed headroom (never-colocated servers probe last,
        // from zero), up to the per-epoch budget — but not in the
        // final epoch, so every probe is observed at least once
        // before the run is scored.
        if (learn && epoch < config.epochs - 1) {
            struct Candidate {
                std::size_t server;
                double slack;
            };
            std::vector<Candidate> candidates;
            for (std::size_t s = 0; s < n; ++s) {
                if (down[s] || instances[s] >= cap[s])
                    continue;
                if (instances[s] == 0) {
                    candidates.push_back(Candidate{s, 0.0});
                } else if (observed_at[s] == instances[s] &&
                           observed_slack[s] >= config.headroom) {
                    candidates.push_back(
                        Candidate{s, observed_slack[s]});
                }
            }
            std::sort(candidates.begin(), candidates.end(),
                      [](const Candidate &a, const Candidate &b) {
                          if (a.slack != b.slack)
                              return a.slack > b.slack;
                          return a.server < b.server;
                      });
            const std::size_t budget = std::min(
                candidates.size(),
                static_cast<std::size_t>(config.probeBudget));
            for (std::size_t i = 0; i < budget; ++i) {
                const std::size_t s = candidates[i].server;
                ++instances[s];
                if (load_aware &&
                    instances[s] + fillers[s] > kMaxInstances) {
                    // The probe takes a context a filler occupied.
                    --fillers[s];
                    ++stats.fillersShed;
                }
                observed_at[s] = -1;
                ++stats.probes;
            }
        }

        // 6. Load-aware filler management: on every live server,
        // shed fillers whose depth the knee of this epoch's offered
        // load no longer carries, then grow them while one more
        // still clears it — best-effort work soaks up whatever
        // headroom the spike left, and gives it back first.
        if (load_aware) {
            for (std::size_t s = 0; s < n; ++s) {
                if (down[s]) {
                    fillers[s] = 0;
                    continue;
                }
                while (fillers[s] > 0 &&
                       (instances[s] + fillers[s] > kMaxInstances ||
                        kneeAt(s, std::min(instances[s] + fillers[s],
                                           kMaxInstances)) <
                            offered[s])) {
                    --fillers[s];
                    ++stats.fillersShed;
                }
                while (instances[s] + fillers[s] < kMaxInstances &&
                       kneeAt(s, instances[s] + fillers[s] + 1) >=
                           offered[s]) {
                    ++fillers[s];
                }
            }
        }

        // Epoch bookkeeping for the timeline and metrics. Fillers are
        // busy contexts too (that is their point), so they count in
        // utilization; with load-aware off they are identically zero.
        int down_count = 0;
        double total = 0.0;
        double filler_total = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
            down_count += down[s] ? 1 : 0;
            total += instances[s];
            filler_total += fillers[s];
        }
        stats.liveServers = static_cast<int>(n) - down_count;
        stats.totalInstances = total;
        stats.fillerInstances = filler_total;
        stats.utilization =
            (static_cast<double>(stats.liveServers) * kLatencyThreads +
             total + filler_total) /
            (static_cast<double>(n) * kContextsPerServer);

        // The churn counters are shared by static and online runs:
        // the churn is the same phenomenon under either policy. The
        // online, load-aware and fairness metrics register only when
        // their step runs, so other runs leave the registry — and the
        // report baselines diffed in tier-1 — untouched.
        registry.counter("scheduler.recoveries").add(stats.recoveries);
        registry.counter("scheduler.server_failures").add(stats.failures);
        registry.counter("scheduler.evictions")
            .add(stats.failureEvictions);
        registry.counter("scheduler.replacements")
            .add(stats.replacements);
        registry.counter("scheduler.lost_instances")
            .add(stats.lostInstances);
        if (learn) {
            registry.counter("scheduler.online.epochs").add();
            registry.counter("scheduler.online.observations")
                .add(observations);
            registry.counter("scheduler.online.observed_violations")
                .add(stats.observedViolations);
            registry.counter("scheduler.online.qos_evictions")
                .add(stats.qosEvictions);
            registry.counter("scheduler.online.probes").add(stats.probes);
            registry.gauge("scheduler.online.utilization")
                .set(stats.utilization);
        }
        if (load_aware) {
            registry.counter("scheduler.online.load_spikes")
                .add(stats.loadSpikes);
            registry.counter("scheduler.online.fillers_shed")
                .add(stats.fillersShed);
            registry.counter("scheduler.online.load_violations")
                .add(stats.loadViolations);
            registry.gauge("scheduler.online.filler_instances")
                .set(filler_total);
        }
        if (fairness) {
            registry.counter("scheduler.online.fairness_evictions")
                .add(stats.fairnessEvictions);
            registry.gauge("scheduler.online.max_slowdown")
                .set(stats.maxSlowdown);
            registry.gauge("scheduler.online.slowdown_spread")
                .set(stats.slowdownSpread);
        }
        result.timeline.push_back(stats);
    }

    // Servers still down in the final epoch host nothing and run no
    // latency threads; finish() excludes them from the busy-context
    // accounting.
    const int down_servers =
        static_cast<int>(std::count(down.begin(), down.end(), true));
    result.final = finish(name, qos_target, instances, down_servers);
    return result;
}

PolicyResult
Cluster::runOraclePolicy(double qos_target) const
{
    obs::Span span("scheduler.policy", "Oracle");
    std::vector<int> instances(assignment_.size(), 0);
    for (size_t s = 0; s < assignment_.size(); ++s) {
        const Pairing &pairing = pairingOf(s);
        for (int k = kMaxInstances; k >= 1; --k) {
            if (pairing.byInstances[k - 1].actualQos >= qos_target) {
                instances[s] = k;
                break;
            }
        }
    }
    return finish("Oracle", qos_target, instances);
}

PolicyResult
Cluster::runRandomPolicy(double qos_target, double match_instances) const
{
    obs::Span span("scheduler.policy", "Random");
    // Draw uniform instance counts, then nudge random servers until
    // the total matches the utilization gain we must reproduce.
    workload::Rng rng(kRandomPolicySeed);
    std::vector<int> instances(assignment_.size(), 0);
    std::int64_t total = 0;
    for (size_t s = 0; s < assignment_.size(); ++s) {
        instances[s] =
            static_cast<int>(rng.nextBelow(kMaxInstances + 1));
        total += instances[s];
    }
    const std::int64_t want = std::llround(match_instances);
    std::uint64_t guard = 0;
    const std::uint64_t guard_limit = 100ull * assignment_.size();
    while (total != want && guard++ < guard_limit) {
        const size_t s = rng.nextBelow(assignment_.size());
        if (total < want && instances[s] < kMaxInstances) {
            ++instances[s];
            ++total;
        } else if (total > want && instances[s] > 0) {
            --instances[s];
            --total;
        }
    }
    if (total != want) {
        // Returning a mismatched total silently would skew the
        // matched-utilization comparison the Random policy exists
        // for; the divergence is absorbed but must stay auditable.
        obs::IncidentLog::global().record(
            "scheduler: random policy nudge loop hit guard limit at " +
            std::to_string(total) + " instances (target " +
            std::to_string(want) + ")");
    }
    return finish("Random", qos_target, instances);
}

} // namespace smite::scheduler
