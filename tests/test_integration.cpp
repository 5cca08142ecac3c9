/**
 * @file
 * End-to-end integration test: the full SMiTe pipeline on a reduced
 * benchmark subset — characterize, train (Equation 3), predict a
 * held-out co-location, and beat trivial baselines.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/smite.h"

namespace smite::core {
namespace {

/** Shared lab with short windows: this suite runs real simulations. */
Lab &
lab()
{
    static Lab instance(sim::MachineConfig::ivyBridge(), 20000, 80000);
    return instance;
}

std::vector<workload::WorkloadProfile>
trainingSubset()
{
    using workload::spec2006::byName;
    return {byName("400.perlbench"), byName("410.bwaves"),
            byName("429.mcf"),       byName("444.namd"),
            byName("454.calculix"),  byName("462.libquantum"),
            byName("465.tonto"),     byName("470.lbm"),
            byName("483.xalancbmk")};
}

TEST(Integration, EndToEndPredictionBeatsBaselines)
{
    const auto mode = CoLocationMode::kSmt;
    const Predictor model = Predictor::train(
        PredictorKind::kSmite,
        trainingCorpus(lab(), trainingSubset(), mode).samples);

    // Held-out applications spanning compute-, branch- and
    // memory-bound behaviour.
    using workload::spec2006::byName;
    const std::vector<workload::WorkloadProfile> held_out = {
        byName("453.povray"), byName("433.milc"), byName("445.gobmk"),
        byName("471.omnetpp")};
    const std::vector<WorkloadSignature> sigs =
        signaturesOf(lab(), held_out, mode);

    double smite_err = 0.0, zero_err = 0.0;
    int n = 0;
    for (std::size_t v = 0; v < held_out.size(); ++v) {
        for (std::size_t a = 0; a < held_out.size(); ++a) {
            if (v == a)
                continue;
            const double actual =
                lab().pairDegradation(held_out[v], held_out[a], mode);
            const double predicted =
                model.predictDegradation(sigs[v], sigs[a]);
            smite_err += std::abs(predicted - actual);
            zero_err += std::abs(actual);
            ++n;
        }
    }
    // The trained model must clearly beat predicting "no
    // interference", and its absolute error must stay moderate.
    EXPECT_LT(smite_err, 0.8 * zero_err);
    EXPECT_LT(smite_err / n, 0.12);
}

TEST(Integration, PmuBaselineTrainsAndPredictsInRange)
{
    const auto mode = CoLocationMode::kSmt;
    // The PMU baseline needs > 22 samples: 9 apps give 72 ordered
    // pairs.
    const Predictor model = Predictor::train(
        PredictorKind::kPmu,
        trainingCorpus(lab(), trainingSubset(), mode).samples);
    const double pred = model.predictDegradation(
        signatureOf(lab(), workload::spec2006::byName("453.povray"), mode),
        signatureOf(lab(), workload::spec2006::byName("433.milc"), mode));
    EXPECT_GE(pred, 0.0);
    EXPECT_LT(pred, 1.0);
}

TEST(Integration, SmiteCoefficientsAreFinite)
{
    const Predictor model = Predictor::train(
        PredictorKind::kSmite,
        trainingCorpus(lab(), trainingSubset(), CoLocationMode::kSmt)
            .samples);
    for (double c : model.coefficients())
        EXPECT_TRUE(std::isfinite(c));
    EXPECT_TRUE(std::isfinite(model.constantTerm()));
}

TEST(Integration, TailLatencyPipeline)
{
    // Predicted degradation -> Equation 6 -> percentile; measured
    // degradation -> queueing simulation. Both must agree on order
    // of magnitude and ordering.
    const auto &ws = workload::cloudsuite::byName("Web-Search");
    const TailLatencyPredictor predictor(ws);
    const double deg = 0.2;
    const double predicted = predictor.predictPercentile(0.9, deg);
    const double measured = predictor.measurePercentile(0.9, deg);
    EXPECT_NEAR(predicted / measured, 1.0, 0.15);
    EXPECT_GT(predicted, predictor.soloPercentile(0.9));
}

} // namespace
} // namespace smite::core
