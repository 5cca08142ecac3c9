/**
 * @file
 * Beyond the paper ("Figure 19"): static vs online SMiTe scheduling
 * under server churn.
 *
 * The paper's scale-out results (Figures 14-18) score a one-shot
 * placement. This harness runs the same cluster through decision
 * epochs with `server.fail` churn and compares three policies on the
 * final epoch's placement:
 *
 *   SMiTe-static   runPredictedPolicyWithFailures — the predicted
 *                  placement, re-placing evictions model-aware but
 *                  never reacting to delivered QoS
 *   SMiTe-online   runOnline — observes actual QoS each epoch,
 *                  evicts observed violators, probes observed
 *                  headroom (src/scheduler/cluster.h)
 *   Oracle         runOraclePolicy — perfect knowledge, no churn
 *                  (upper bound)
 *
 * Both churn policies are runs of Cluster's one decision-epoch loop
 * (the static one learns nothing) and replay the identical keyed
 * failure trace, so the comparison isolates the policy. With no
 * SMITE_FAULTS in the environment the harness arms a default churn
 * plan (server.fail: p=0.02, seed=101); either way every decision is
 * a pure function of the armed seed, so stdout is byte-identical
 * across runs and across SMITE_THREADS settings (the tier-1 smoke
 * pins this). Arm `scheduler.observe` to add measurement noise to
 * the online policy's QoS telemetry.
 */

#include "bench/scaleout.h"
#include "fault/fault.h"
#include "scheduler/cluster.h"

using namespace smite;

namespace {

constexpr int kEpochs = 20;

obs::json::Value
policyJson(const scheduler::PolicyResult &r)
{
    obs::json::Value v = obs::json::Value::object();
    v.set("policy", obs::json::Value(r.policy));
    v.set("utilization", obs::json::Value(r.utilization()));
    v.set("utilization_improvement",
          obs::json::Value(r.utilizationImprovement()));
    v.set("goodput_utilization",
          obs::json::Value(r.goodputUtilization()));
    v.set("goodput_improvement",
          obs::json::Value(r.goodputImprovement()));
    v.set("violation_rate", obs::json::Value(r.violationRate()));
    v.set("total_instances", obs::json::Value(r.totalInstances));
    v.set("down_servers", obs::json::Value(r.downServers));
    return v;
}

} // namespace

int
main()
{
    bench::ReportScope obs_scope("bench_fig19_online_policy");
    bench::banner("Figure 19 (beyond the paper)",
                  "Static vs online SMiTe co-location policy under "
                  "server churn (average-performance QoS)");

    core::Lab lab = bench::makeLab(sim::MachineConfig::sandyBridgeEN());
    const auto mode = core::CoLocationMode::kSmt;
    const core::Predictor model = core::Predictor::train(
        core::PredictorKind::kSmite,
        core::trainingCorpus(lab, workload::spec2006::oddNumbered(), mode)
            .samples);
    const auto pairings = bench::buildAvgPerfPairings(
        lab, model, workload::cloudsuite::all(),
        workload::spec2006::evenNumbered());
    const scheduler::Cluster cluster(pairings,
                                     bench::namesOf(
                                         workload::cloudsuite::all()),
                                     bench::kServersPerApp);

    // Default churn plan when the environment armed nothing: ~2% of
    // servers fail per epoch, deterministically seeded.
    fault::FaultPlan &faults = fault::FaultPlan::global();
    if (!faults.armed("server.fail")) {
        faults.arm("server.fail",
                   fault::SiteSpec{.probability = 0.02, .seed = 101});
    }
    std::printf("churn: server.fail p=%.3f seed=%llu, %d decision "
                "epochs, %d servers\n\n",
                faults.spec("server.fail").probability,
                static_cast<unsigned long long>(
                    faults.spec("server.fail").seed),
                kEpochs, cluster.servers());

    const scheduler::OnlineConfig online_config{.epochs = kEpochs};
    // Tolerance of two QoS points: tight enough that the trim pass
    // engages on the spreads this cluster actually exhibits.
    const scheduler::OnlineConfig fairness_config{
        .epochs = kEpochs,
        .objective = scheduler::Objective::kFairness,
        .spreadTolerance = 0.02};

    // `util+` is raw utilization gain over the no-SMT baseline;
    // `good+` is the goodput gain, where instances on QoS-violating
    // servers count as wasted work. An over-packing policy can win on
    // raw utilization only by violating; goodput is what the cluster
    // actually delivers within SLA.
    std::printf("%-10s | %7s %7s %7s | %7s %7s %7s | %7s\n",
                "", "static", "", "", "online", "", "", "oracle");
    std::printf("%-10s | %7s %7s %7s | %7s %7s %7s | %7s\n",
                "QoS target", "util+%", "good+%", "viol%", "util+%",
                "good+%", "viol%", "good+%");
    int dominated = 0;
    scheduler::OnlineResult timeline_run;
    obs::json::Value by_target = obs::json::Value::array();
    struct FairnessRow {
        double target;
        scheduler::OnlineResult util;
        scheduler::OnlineResult fair;
    };
    std::vector<FairnessRow> fairness_rows;
    for (double target : {0.95, 0.90, 0.85}) {
        const auto fixed = cluster.runPredictedPolicyWithFailures(
            target, kEpochs, "SMiTe-static");
        auto online = cluster.runOnline(target, online_config);
        auto fair = cluster.runOnline(target, fairness_config,
                                      "SMiTe-online-fair");
        const auto oracle = cluster.runOraclePolicy(target);
        const bool dominates =
            online.final.violationRate() <= fixed.violationRate() &&
            online.final.goodputUtilization() >=
                fixed.goodputUtilization();
        dominated += dominates ? 1 : 0;
        std::printf("%9.0f%% | %6.2f%% %6.2f%% %6.2f%% | %6.2f%% "
                    "%6.2f%% %6.2f%% | %6.2f%%\n",
                    100 * target,
                    100 * fixed.utilizationImprovement(),
                    100 * fixed.goodputImprovement(),
                    100 * fixed.violationRate(),
                    100 * online.final.utilizationImprovement(),
                    100 * online.final.goodputImprovement(),
                    100 * online.final.violationRate(),
                    100 * oracle.goodputImprovement());

        obs::json::Value row = obs::json::Value::object();
        row.set("qos_target", obs::json::Value(target));
        row.set("static", policyJson(fixed));
        row.set("online", policyJson(online.final));
        row.set("online_fair", policyJson(fair.final));
        row.set("oracle", policyJson(oracle));
        by_target.push(std::move(row));
        FairnessRow frow{target, {}, std::move(fair)};
        if (target == 0.90) {
            frow.util = online;
            timeline_run = std::move(online);
        } else {
            frow.util = std::move(online);
        }
        fairness_rows.push_back(std::move(frow));
    }
    std::printf("\nonline beats static (lower violation rate at "
                "equal-or-better goodput) at %d/3 targets\n",
                dominated);

    // Fairness objective (MISE-Fair-style): how much max slowdown /
    // slowdown spread the extra trim pass buys, and what it costs in
    // goodput, at each target.
    std::printf("\nfairness objective vs utilization objective "
                "(final placement, actual QoS):\n");
    std::printf("%-10s | %8s %8s %7s | %8s %8s %7s\n", "",
                "util", "", "", "fairness", "", "");
    std::printf("%-10s | %8s %8s %7s | %8s %8s %7s\n", "QoS target",
                "maxslow%", "spread%", "good+%", "maxslow%",
                "spread%", "good+%");
    int fairness_wins = 0;
    obs::json::Value fairness_json = obs::json::Value::array();
    for (const FairnessRow &r : fairness_rows) {
        const bool wins = r.fair.final.maxSlowdown <
                          r.util.final.maxSlowdown;
        fairness_wins += wins ? 1 : 0;
        std::printf("%9.0f%% | %7.2f%% %7.2f%% %6.2f%% | %7.2f%% "
                    "%7.2f%% %6.2f%%\n",
                    100 * r.target,
                    100 * r.util.final.maxSlowdown,
                    100 * r.util.final.slowdownSpread,
                    100 * r.util.final.goodputImprovement(),
                    100 * r.fair.final.maxSlowdown,
                    100 * r.fair.final.slowdownSpread,
                    100 * r.fair.final.goodputImprovement());
        obs::json::Value row = obs::json::Value::object();
        row.set("qos_target", obs::json::Value(r.target));
        row.set("util_max_slowdown",
                obs::json::Value(r.util.final.maxSlowdown));
        row.set("util_slowdown_spread",
                obs::json::Value(r.util.final.slowdownSpread));
        row.set("fair_max_slowdown",
                obs::json::Value(r.fair.final.maxSlowdown));
        row.set("fair_slowdown_spread",
                obs::json::Value(r.fair.final.slowdownSpread));
        row.set("fair_fairness_evictions",
                obs::json::Value(
                    r.fair.timeline.empty()
                        ? 0
                        : r.fair.timeline.back().fairnessEvictions));
        fairness_json.push(std::move(row));
    }
    std::printf("fairness reduces max slowdown at %d/3 targets\n",
                fairness_wins);

    std::printf("\nepoch timeline at the 90%% target "
                "(utilization gain %%, online policy):\n");
    std::printf("%5s %6s %10s %8s %8s %7s %6s %6s %6s %5s\n", "epoch",
                "live", "instances", "util+%", "obsviol", "evict",
                "probe", "fail", "repl", "lost");
    obs::json::Value timeline = obs::json::Value::array();
    const double base = static_cast<double>(bench::kLatencyThreads) /
                        scheduler::kContextsPerServer;
    for (const scheduler::EpochStats &e : timeline_run.timeline) {
        std::printf("%5d %6d %10.0f %7.2f%% %8d %7d %6d %6d %6d %5d\n",
                    e.epoch, e.liveServers, e.totalInstances,
                    100 * (e.utilization - base) / base,
                    e.observedViolations, e.qosEvictions, e.probes,
                    e.failures, e.replacements, e.lostInstances);
        obs::json::Value row = obs::json::Value::object();
        row.set("epoch", obs::json::Value(e.epoch));
        row.set("live_servers", obs::json::Value(e.liveServers));
        row.set("total_instances",
                obs::json::Value(e.totalInstances));
        row.set("utilization", obs::json::Value(e.utilization));
        row.set("observed_violations",
                obs::json::Value(e.observedViolations));
        row.set("qos_evictions", obs::json::Value(e.qosEvictions));
        row.set("probes", obs::json::Value(e.probes));
        row.set("failures", obs::json::Value(e.failures));
        row.set("replacements", obs::json::Value(e.replacements));
        row.set("lost_instances",
                obs::json::Value(e.lostInstances));
        timeline.push(std::move(row));
    }

    bench::ReportScope::recordResult("by_target",
                                     std::move(by_target));
    bench::ReportScope::recordResult("timeline_t90",
                                     std::move(timeline));
    bench::ReportScope::recordResult("dominated_targets",
                                     obs::json::Value(dominated));
    bench::ReportScope::recordResult("fairness_by_target",
                                     std::move(fairness_json));
    bench::ReportScope::recordResult("fairness_wins",
                                     obs::json::Value(fairness_wins));

    bench::paperReference(
        "beyond the paper: an online, observation-driven variant of "
        "the Section IV-D scheduler; Navarro et al. and Subramanian "
        "et al. motivate reacting to observed interference over "
        "one-shot static decisions");
    return 0;
}
