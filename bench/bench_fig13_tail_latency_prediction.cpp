/**
 * @file
 * Figure 13: 90th-percentile latency prediction for Web-Search and
 * Data-Caching co-located with SPEC batch applications (the other
 * two CloudSuite applications do not report percentile statistics).
 *
 * Measured tail latency: the open-loop discrete-event simulation
 * (queueing::simulateOpenLoop behind TailLatencyPredictor::
 * measurePercentile) whose service rate is degraded by the *measured*
 * co-location degradation. Predicted: Equation 6 applied to the
 * SMiTe-predicted degradation. The closed-form M/M/1 percentile at
 * the measured degradation is printed alongside as a cross-check
 * column ("mm1 p90"); in the stable low-load regime (degraded
 * utilization <= 0.75) the DES and the closed form must agree within
 * a tolerance, and the bench exits nonzero if they do not.
 */

#include "bench/common.h"

using namespace smite;

int
main()
{
    bench::ReportScope obs_scope("bench_fig13_tail_latency_prediction");
    bench::banner("Figure 13",
                  "90th-percentile latency prediction under SMT "
                  "co-location (Sandy Bridge-EN)");

    core::Lab lab = bench::makeLab(sim::MachineConfig::sandyBridgeEN());
    const auto mode = core::CoLocationMode::kSmt;
    const int threads = 6;
    const auto train = workload::spec2006::oddNumbered();
    const auto test = workload::spec2006::evenNumbered();
    const core::Predictor model = core::Predictor::train(
        core::PredictorKind::kSmite,
        core::trainingCorpus(lab, train, mode).samples);
    const std::vector<core::WorkloadSignature> test_sigs =
        core::signaturesOf(lab, test, mode);

    // Cross-check gate: where the degraded queue is comfortably
    // stable, the DES measurement and the closed form describe the
    // same M/M/1 and must agree within sampling noise.
    const double kStableUtilization = 0.75;
    const double kCrossCheckTolerance = 0.12;
    int cross_checks = 0;
    int cross_check_failures = 0;

    for (const auto &cloud : workload::cloudsuite::all()) {
        if (!cloud.reportsPercentile)
            continue;
        const core::TailLatencyPredictor predictor(cloud);
        const double solo_p90 = predictor.soloPercentile(0.90);
        const core::WorkloadSignature cloud_sig =
            core::signatureOf(lab, cloud, mode, threads);

        std::printf("\n%s: solo p90 = %.3f ms "
                    "(lambda %.0f/s, mu %.0f/s)\n", cloud.name.c_str(),
                    1e3 * solo_p90, cloud.arrivalRate,
                    cloud.serviceRate);
        std::printf("%-16s %10s %12s %12s %12s %8s\n", "batch app",
                    "meas deg", "des p90", "mm1 p90", "pred p90",
                    "err");

        double err_sum = 0;
        int n = 0;
        // Two batch instances: the operating point tail-QoS targets
        // actually admit (deeper co-locations drive the queue toward
        // instability, where percentiles diverge).
        const int instances = 2;
        for (std::size_t b = 0; b < test.size(); ++b) {
            const auto &batch = test[b];
            const double actual = lab.multiInstanceDegradation(
                cloud, threads, batch, instances, mode);
            const double predicted_deg = core::Lab::scaleToInstances(
                model.predictDegradation(cloud_sig, test_sigs[b]),
                instances, threads);
            const double clamped =
                std::min(std::max(actual, 0.0), 0.95);
            const double measured_p90 =
                predictor.measurePercentile(0.90, clamped);
            const double mm1_p90 =
                predictor.queue().degradedPercentileLatency(0.90,
                                                            clamped);
            const double predicted_p90 =
                predictor.predictPercentile(0.90, predicted_deg);
            const double err =
                std::abs(predicted_p90 - measured_p90) / measured_p90;
            std::printf(
                "%-16s %9.1f%% %10.3fms %10.3fms %10.3fms %7.2f%%\n",
                batch.name.c_str(), 100 * actual, 1e3 * measured_p90,
                1e3 * mm1_p90, 1e3 * predicted_p90, 100 * err);
            err_sum += err;
            ++n;

            const double utilization =
                predictor.queue().lambda() /
                ((1.0 - clamped) * predictor.queue().mu());
            if (utilization <= kStableUtilization) {
                ++cross_checks;
                const double gap =
                    std::abs(measured_p90 - mm1_p90) / mm1_p90;
                if (gap > kCrossCheckTolerance) {
                    ++cross_check_failures;
                    std::printf("  CROSS-CHECK FAIL: |des - mm1| = "
                                "%.2f%% > %.0f%% at utilization "
                                "%.2f\n", 100 * gap,
                                100 * kCrossCheckTolerance,
                                utilization);
                }
            }
        }
        std::printf("%-16s average absolute p90 prediction error: "
                    "%.2f%%\n", cloud.name.c_str(), 100 * err_sum / n);
    }

    std::printf("\ncross-check: DES vs closed-form M/M/1 within "
                "%.0f%% on %d stable-regime points (%d failures)\n",
                100 * kCrossCheckTolerance, cross_checks,
                cross_check_failures);

    bench::paperReference(
        "average absolute prediction error 4.61% for Web-Search and "
        "6.17% for Data-Caching; the queueing model captures the "
        "correlation between degradation and tail latency");
    return cross_check_failures == 0 && cross_checks > 0 ? 0 : 1;
}
