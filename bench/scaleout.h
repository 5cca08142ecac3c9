/**
 * @file
 * Shared setup for the scale-out study benches (Figures 14-18):
 * builds the per-(latency app, batch app, instance count) QoS tables
 * the cluster policies consume, for both QoS metrics.
 */

#ifndef SMITE_BENCH_SCALEOUT_H
#define SMITE_BENCH_SCALEOUT_H

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/common.h"
#include "scheduler/cluster.h"

namespace smite::bench {

/** Latency threads per server in the half-loaded baseline. */
inline constexpr int kLatencyThreads = scheduler::kLatencyThreads;

/** Servers dedicated to each latency application (paper: 1,000). */
inline constexpr int kServersPerApp = 1000;

/** Signatures of a scale-out sweep's latency and batch apps. */
struct ScaleoutSignatures {
    std::vector<core::WorkloadSignature> latency;  ///< kLatencyThreads-thread
    std::vector<core::WorkloadSignature> batch;
};

/**
 * Fan the full measurement grid of a scale-out sweep — latency-app
 * (kLatencyThreads threads) and batch-app signatures plus every
 * (latency, batch, 1..kLatencyThreads) multi-instance degradation —
 * out across the Lab's thread pool (width: SMITE_THREADS). The serial
 * table-assembly loops below then run entirely on replay-store hits, so
 * their output is byte-identical to the all-serial protocol
 * (verified by bench_parallel_scaling).
 */
inline ScaleoutSignatures
prefetchScaleoutGrid(core::Lab &lab,
                     const std::vector<workload::WorkloadProfile> &latency,
                     const std::vector<workload::WorkloadProfile> &batch)
{
    const auto mode = core::CoLocationMode::kSmt;
    ScaleoutSignatures sigs{
        core::signaturesOf(lab, latency, mode, kLatencyThreads),
        core::signaturesOf(lab, batch, mode)};
    lab.multiInstancePrefetch(latency, kLatencyThreads, batch,
                              kLatencyThreads, mode);
    return sigs;
}

/**
 * Average-performance QoS tables: QoS = 1 - degradation, actual from
 * many-instance co-location measurements, predicted from the SMiTe
 * model scaled to the instance count.
 */
inline std::vector<scheduler::Pairing>
buildAvgPerfPairings(core::Lab &lab, const core::Predictor &model,
                     const std::vector<workload::WorkloadProfile> &latency,
                     const std::vector<workload::WorkloadProfile> &batch)
{
    const auto mode = core::CoLocationMode::kSmt;
    const ScaleoutSignatures sigs =
        prefetchScaleoutGrid(lab, latency, batch);
    std::vector<scheduler::Pairing> pairings;
    for (std::size_t l = 0; l < latency.size(); ++l) {
        const auto &cloud = latency[l];
        for (std::size_t b = 0; b < batch.size(); ++b) {
            const double pair_prediction = model.predictDegradation(
                sigs.latency[l], sigs.batch[b]);
            scheduler::Pairing pairing;
            pairing.latencyApp = cloud.name;
            pairing.batchApp = batch[b].name;
            for (int k = 1; k <= kLatencyThreads; ++k) {
                scheduler::CoLocationOption option;
                option.actualQos =
                    1.0 - lab.multiInstanceDegradation(
                              cloud, kLatencyThreads, batch[b], k,
                              mode);
                option.predictedQos =
                    1.0 - core::Lab::scaleToInstances(
                              pair_prediction, k, kLatencyThreads);
                pairing.byInstances.push_back(option);
            }
            pairings.push_back(std::move(pairing));
        }
    }
    return pairings;
}

/**
 * Tail-latency QoS tables: QoS = solo p90 / degraded p90, so a QoS
 * target of q allows the 90th percentile to stretch by 1/q. Actual
 * tail latency comes from a queueing simulation driven by the
 * measured degradation; predicted from Equation 6 on the predicted
 * degradation.
 */
inline std::vector<scheduler::Pairing>
buildTailPairings(core::Lab &lab, const core::Predictor &model,
                  const std::vector<workload::WorkloadProfile> &latency,
                  const std::vector<workload::WorkloadProfile> &batch)
{
    const auto mode = core::CoLocationMode::kSmt;
    const ScaleoutSignatures sigs =
        prefetchScaleoutGrid(lab, latency, batch);
    std::vector<scheduler::Pairing> pairings;
    for (std::size_t l = 0; l < latency.size(); ++l) {
        const auto &cloud = latency[l];
        const core::TailLatencyPredictor predictor(cloud);
        const double solo_p90 = predictor.soloPercentile(0.90);
        for (std::size_t b = 0; b < batch.size(); ++b) {
            const double pair_prediction = model.predictDegradation(
                sigs.latency[l], sigs.batch[b]);
            scheduler::Pairing pairing;
            pairing.latencyApp = cloud.name;
            pairing.batchApp = batch[b].name;
            for (int k = 1; k <= kLatencyThreads; ++k) {
                const double actual_deg = std::clamp(
                    lab.multiInstanceDegradation(
                        cloud, kLatencyThreads, batch[b], k, mode),
                    0.0, 0.95);
                const double predicted_deg = std::max(
                    core::Lab::scaleToInstances(pair_prediction, k,
                                                kLatencyThreads),
                    0.0);
                scheduler::CoLocationOption option;
                option.actualQos =
                    solo_p90 /
                    predictor.measurePercentile(0.90, actual_deg);
                const double predicted_p90 =
                    predictor.predictPercentile(0.90, predicted_deg);
                option.predictedQos =
                    std::isfinite(predicted_p90)
                        ? solo_p90 / predicted_p90
                        : 0.0;
                pairing.byInstances.push_back(option);
            }
            pairings.push_back(std::move(pairing));
        }
    }
    return pairings;
}

/** Names of a latency-app set (cluster constructor input). */
inline std::vector<std::string>
namesOf(const std::vector<workload::WorkloadProfile> &apps)
{
    std::vector<std::string> names;
    for (const auto &a : apps)
        names.push_back(a.name);
    return names;
}

} // namespace smite::bench

#endif // SMITE_BENCH_SCALEOUT_H
