/**
 * @file
 * Conformance suite for the predictor zoo (core/predictor.h): every
 * PredictorKind must honour the same contract — predictions in
 * [0, 1], solo predicts zero, unusable or adversarial signatures fall
 * back to the conservative worst case with the `predictor.*` counters
 * ticking — plus each kind's feature row pinned on hand-built
 * signatures, the paper's two regressions on synthetic data
 * (Equation 3 and Equation 9 recovery, minimum sample counts) and a
 * real-Lab end-to-end smoke of trainPredictorZoo at tiny intervals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/predictor.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "workload/rng.h"
#include "workload/spec2006.h"

namespace smite::core {
namespace {

std::uint64_t
counter(const std::string &name)
{
    return obs::Registry::global().counter(name).value();
}

/** A finite, plausible synthetic signature. */
WorkloadSignature
syntheticSignature(workload::Rng &rng, const std::string &name)
{
    WorkloadSignature s;
    s.name = name;
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        s.characterization.sensitivity[d] = rng.nextDouble();
        s.characterization.contentiousness[d] = rng.nextDouble();
    }
    for (int r = 0; r < sim::kNumPmuRates; ++r)
        s.pmu[r] = rng.nextDouble();
    s.soloCounters.cycles = 10'000;
    s.soloCounters.l2Misses = rng.nextU64() % 2'000;
    s.soloCounters.l3Misses = rng.nextU64() % 1'000;
    s.soloIpc = 0.5 + rng.nextDouble();
    return s;
}

/** Signatures + samples obeying a synthetic degradation law. */
struct SyntheticCorpus {
    std::vector<WorkloadSignature> signatures;
    std::vector<PredictorSample> samples;
};

SyntheticCorpus
makeCorpus(int n_workloads)
{
    SyntheticCorpus corpus;
    workload::Rng rng(0xA110'17ull);
    for (int i = 0; i < n_workloads; ++i) {
        corpus.signatures.push_back(
            syntheticSignature(rng, "w" + std::to_string(i)));
    }
    for (int i = 0; i < n_workloads; ++i) {
        for (int j = 0; j < n_workloads; ++j) {
            if (i == j)
                continue;
            const auto &v = corpus.signatures[i];
            const auto &a = corpus.signatures[j];
            double deg = 0.05;
            for (int d = 0; d < rulers::kNumDimensions; ++d) {
                deg += 0.08 * v.characterization.sensitivity[d] *
                       a.characterization.contentiousness[d];
            }
            corpus.samples.push_back(
                {&corpus.signatures[i], &corpus.signatures[j], deg});
        }
    }
    return corpus;
}

/**
 * @p n samples, each over its own random (victim, aggressor)
 * signature pair, with degradations given by @p law.
 */
SyntheticCorpus
pairwiseCorpus(int n, std::uint64_t seed,
               const std::function<double(const WorkloadSignature &,
                                          const WorkloadSignature &)>
                   &law)
{
    SyntheticCorpus corpus;
    workload::Rng rng(seed);
    for (int i = 0; i < 2 * n; ++i) {
        corpus.signatures.push_back(
            syntheticSignature(rng, "s" + std::to_string(i)));
    }
    for (int i = 0; i < n; ++i) {
        const WorkloadSignature &v = corpus.signatures[2 * i];
        const WorkloadSignature &a = corpus.signatures[2 * i + 1];
        corpus.samples.push_back({&v, &a, law(v, a)});
    }
    return corpus;
}

/** Every kind trained on one synthetic corpus, in zoo order. */
std::vector<Predictor>
trainedZoo(const SyntheticCorpus &corpus)
{
    std::vector<Predictor> zoo;
    for (const PredictorKind kind : kAllPredictorKinds)
        zoo.push_back(Predictor::train(kind, corpus.samples));
    return zoo;
}

TEST(PredictorZoo, NamesAreUniqueAndCostsSensible)
{
    const SyntheticCorpus corpus = makeCorpus(8);
    const auto zoo = trainedZoo(corpus);
    std::vector<std::string> names;
    for (const Predictor &p : zoo)
        names.emplace_back(p.name());
    EXPECT_EQ(names, (std::vector<std::string>{"smite", "pmu", "mise",
                                               "alves-drummond"}));
    // Ruler-based predictors pay one co-run per dimension on top of
    // the solo run; counter-based ones read a single solo run.
    EXPECT_EQ(zoo[0].signatureRuns(), 1 + rulers::kNumDimensions);
    EXPECT_EQ(zoo[1].signatureRuns(), 1);
    EXPECT_EQ(zoo[2].signatureRuns(), 1);
    EXPECT_EQ(zoo[3].signatureRuns(), 1 + rulers::kNumDimensions);
}

TEST(PredictorZoo, DefaultRidgeIsPerKind)
{
    // 1e-8 for every kind but the collinear PMU rates (1e-6).
    const SyntheticCorpus corpus = makeCorpus(8);
    for (const auto &[kind, ridge] :
         {std::pair{PredictorKind::kSmite, 1e-8},
          std::pair{PredictorKind::kPmu, 1e-6},
          std::pair{PredictorKind::kMise, 1e-8},
          std::pair{PredictorKind::kAlvesDrummond, 1e-8}}) {
        const Predictor fit = Predictor::train(kind, corpus.samples);
        SCOPED_TRACE(std::string(fit.name()));
        const Predictor explicit_fit =
            Predictor::train(kind, corpus.samples, ridge);
        EXPECT_EQ(fit.coefficients(), explicit_fit.coefficients());
        EXPECT_EQ(fit.constantTerm(), explicit_fit.constantTerm());
    }
}

TEST(PredictorZoo, PredictionsAreBoundedAndDeterministic)
{
    const SyntheticCorpus corpus = makeCorpus(8);
    const auto zoo = trainedZoo(corpus);
    for (const auto &p : zoo) {
        SCOPED_TRACE(std::string(p.name()));
        for (const PredictorSample &s : corpus.samples) {
            const double deg =
                p.predictDegradation(*s.victim, *s.aggressor);
            EXPECT_GE(deg, 0.0);
            EXPECT_LE(deg, 1.0);
            EXPECT_EQ(p.predictDegradation(*s.victim, *s.aggressor),
                      deg);
        }
        // Solo: no aggressors, no degradation.
        EXPECT_EQ(p.predictDegradation(
                      corpus.signatures[0],
                      std::vector<const WorkloadSignature *>{}),
                  0.0);
        // Multi-aggressor sets stay bounded too.
        const double multi = p.predictDegradation(
            corpus.signatures[0],
            {&corpus.signatures[1], &corpus.signatures[2],
             &corpus.signatures[3]});
        EXPECT_GE(multi, 0.0);
        EXPECT_LE(multi, 1.0);
    }
}

TEST(PredictorZoo, AdversarialSignaturesFallBackToWorstCase)
{
    const SyntheticCorpus corpus = makeCorpus(8);
    const auto zoo = trainedZoo(corpus);
    workload::Rng rng(0xD155ull);

    for (const auto &p : zoo) {
        SCOPED_TRACE(std::string(p.name()));

        // A signature whose measurement failed.
        WorkloadSignature invalid = syntheticSignature(rng, "invalid");
        invalid.valid = false;
        // A NaN smuggled into the characterization.
        WorkloadSignature poisoned =
            syntheticSignature(rng, "poisoned");
        poisoned.characterization.sensitivity[2] =
            std::numeric_limits<double>::quiet_NaN();
        // A victim that never retired a uop solo: no meaningful
        // degradation ratio can rest on a (near-)zero denominator.
        WorkloadSignature idle = syntheticSignature(rng, "idle");
        idle.soloIpc = 0.0;

        for (const WorkloadSignature *victim :
             {&invalid, &poisoned, &idle}) {
            const std::uint64_t invalid0 =
                counter("predictor.invalid_inputs");
            const std::uint64_t incidents0 =
                obs::IncidentLog::global().count();
            EXPECT_EQ(p.predictDegradation(*victim,
                                           corpus.signatures[1]),
                      1.0);
            EXPECT_EQ(counter("predictor.invalid_inputs"),
                      invalid0 + 1);
            EXPECT_GT(obs::IncidentLog::global().count(), incidents0);
        }
        // An adversarial *aggressor* is caught the same way.
        EXPECT_EQ(p.predictDegradation(corpus.signatures[0],
                                       poisoned),
                  1.0);
    }
}

TEST(PredictorZoo, OutOfRangeRawPredictionsAreClampedAndCounted)
{
    // Train on a world with large degradations, then feed a saturated
    // signature: the raw affine prediction overshoots 1 and must come
    // back clamped, counted once. Flip the sign of the degradations
    // and the raw prediction undershoots 0 instead.
    SyntheticCorpus high = makeCorpus(8);
    SyntheticCorpus low = makeCorpus(8);
    for (PredictorSample &s : high.samples)
        s.degradation *= 30.0;
    for (PredictorSample &s : low.samples)
        s.degradation *= -30.0;

    workload::Rng rng(0xC1A3ull);
    WorkloadSignature saturated = syntheticSignature(rng, "saturated");
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        saturated.characterization.sensitivity[d] = 1.0;
        saturated.characterization.contentiousness[d] = 1.0;
    }

    for (const auto &[corpus, bound] :
         {std::pair{&high, 1.0}, std::pair{&low, 0.0}}) {
        for (const Predictor &p : trainedZoo(*corpus)) {
            SCOPED_TRACE(std::string(p.name()) + " toward " +
                         std::to_string(bound));
            const std::uint64_t predictions0 =
                counter("predictor.predictions");
            const std::uint64_t clamped0 = counter("predictor.clamped");
            EXPECT_EQ(p.predictDegradation(saturated, saturated), bound);
            EXPECT_EQ(counter("predictor.predictions"), predictions0 + 1);
            EXPECT_EQ(counter("predictor.clamped"), clamped0 + 1);
        }
    }
}

TEST(SmiteKind, FeaturesArePerDimensionProducts)
{
    WorkloadSignature victim, a1, a2;
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        victim.characterization.sensitivity[d] = 0.1 * (d + 1);
        a1.characterization.contentiousness[d] = 0.2 * (d + 1);
        a2.characterization.contentiousness[d] = 0.05;
    }
    const auto x =
        Predictor::features(PredictorKind::kSmite, victim, {&a1});
    ASSERT_EQ(x.size(), static_cast<size_t>(rulers::kNumDimensions));
    const auto x2 =
        Predictor::features(PredictorKind::kSmite, victim, {&a1, &a2});
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        // One co-runner: exactly Sen_i^A * Con_i^B, bit for bit.
        EXPECT_EQ(x[d], victim.characterization.sensitivity[d] *
                            a1.characterization.contentiousness[d]);
        // A co-runner set: the contentiousness adds up.
        EXPECT_NEAR(x2[d], 0.1 * (d + 1) * (0.2 * (d + 1) + 0.05),
                    1e-12);
    }
}

TEST(SmiteKind, RecoversSyntheticEquation3)
{
    // A world that obeys Equation 3 exactly: the unregularized fit
    // must reproduce its coefficients and predictions.
    const std::vector<double> truth = {0.3, 0.5, 0.1, 0.4,
                                       0.2, 0.6, 0.8};
    const double c0 = 0.02;
    const auto eq3 = [&](const WorkloadSignature &v,
                         const WorkloadSignature &a) {
        double deg = c0;
        for (int d = 0; d < rulers::kNumDimensions; ++d) {
            deg += truth[d] * v.characterization.sensitivity[d] *
                   a.characterization.contentiousness[d];
        }
        return deg;
    };
    const SyntheticCorpus corpus = pairwiseCorpus(120, 77, eq3);
    const Predictor model =
        Predictor::train(PredictorKind::kSmite, corpus.samples, 0.0);
    ASSERT_EQ(model.coefficients().size(),
              static_cast<size_t>(rulers::kNumDimensions));
    for (int d = 0; d < rulers::kNumDimensions; ++d)
        EXPECT_NEAR(model.coefficients()[d], truth[d], 1e-8);
    EXPECT_NEAR(model.constantTerm(), c0, 1e-8);

    // Predictions follow the law (clamped into [0, 1]), for a pair
    // and for a co-runner set whose contentiousness adds up.
    workload::Rng rng(123);
    const WorkloadSignature victim = syntheticSignature(rng, "victim");
    const WorkloadSignature a1 = syntheticSignature(rng, "a1");
    const WorkloadSignature a2 = syntheticSignature(rng, "a2");
    WorkloadSignature both = a1;
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        both.characterization.contentiousness[d] +=
            a2.characterization.contentiousness[d];
    }
    EXPECT_NEAR(model.predictDegradation(victim, a1),
                std::clamp(eq3(victim, a1), 0.0, 1.0), 1e-8);
    EXPECT_NEAR(model.predictDegradation(victim, {&a1, &a2}),
                std::clamp(eq3(victim, both), 0.0, 1.0), 1e-8);
}

TEST(PmuKind, FeatureLayoutIsVictimThenAggressors)
{
    WorkloadSignature victim, a1, a2;
    victim.pmu[0] = 1.5;
    a1.pmu[0] = 2.5;
    a2.pmu[0] = 0.5;
    const auto x =
        Predictor::features(PredictorKind::kPmu, victim, {&a1});
    ASSERT_EQ(x.size(), 2u * sim::kNumPmuRates);
    EXPECT_EQ(x[0], 1.5);
    EXPECT_EQ(x[sim::kNumPmuRates], 2.5);
    // A co-runner set: the aggressor half is the summed rates.
    EXPECT_EQ(Predictor::features(PredictorKind::kPmu, victim,
                                  {&a1, &a2})[sim::kNumPmuRates],
              3.0);
}

TEST(PmuKind, RecoversSyntheticEquation9)
{
    workload::Rng rng(55);
    std::vector<double> wa(sim::kNumPmuRates), wb(sim::kNumPmuRates);
    for (auto &w : wa)
        w = rng.nextDouble() - 0.5;
    for (auto &w : wb)
        w = rng.nextDouble() - 0.5;
    const double c0 = 0.05;
    const auto eq9 = [&](const WorkloadSignature &v,
                         const WorkloadSignature &a) {
        double deg = c0;
        for (int r = 0; r < sim::kNumPmuRates; ++r)
            deg += wa[r] * v.pmu[r] + wb[r] * a.pmu[r];
        return deg;
    };
    const SyntheticCorpus corpus = pairwiseCorpus(200, 56, eq9);
    const Predictor model =
        Predictor::train(PredictorKind::kPmu, corpus.samples, 0.0);
    for (const PredictorSample &s : corpus.samples) {
        EXPECT_NEAR(model.predictDegradation(*s.victim, *s.aggressor),
                    std::clamp(s.degradation, 0.0, 1.0), 1e-6);
    }
}

TEST(PredictorZoo, PaperModelsNeedMoreSamplesThanFeatures)
{
    const auto flat = [](const WorkloadSignature &,
                         const WorkloadSignature &) { return 0.1; };
    // Feature counts: 7 sharing dimensions, 2 x 11 PMU rates, 4 MISE
    // memory terms, 7 saturating dimensions.
    const int features[] = {7, 22, 4, 7};
    for (const PredictorKind kind : kAllPredictorKinds) {
        const int n = features[static_cast<int>(kind)];
        SCOPED_TRACE(n);
        EXPECT_THROW(
            Predictor::train(kind, pairwiseCorpus(n, 3, flat).samples),
            std::invalid_argument);
        EXPECT_NO_THROW(
            Predictor::train(kind, pairwiseCorpus(n + 1, 3, flat).samples));
    }
}

TEST(MiseKind, FeaturesAreMemoryRatesAndInterferenceProducts)
{
    // Power-of-two cycle counts keep every rate and product exact.
    WorkloadSignature victim, a1, a2;
    victim.soloCounters.cycles = 1'024;
    victim.soloCounters.l3Misses = 64;   // v_dram = 0.0625
    victim.soloCounters.l2Misses = 256;  // v_l3   = 0.25
    a1.soloCounters.cycles = 2'048;
    a1.soloCounters.l3Misses = 128;      // 0.0625
    a1.soloCounters.l2Misses = 1'024;    // 0.5
    a2.soloCounters.cycles = 512;
    a2.soloCounters.l3Misses = 16;       // 0.03125
    a2.soloCounters.l2Misses = 64;       // 0.125
    // {v_dram, a_dram, v_dram * a_dram, v_l3 * a_l3}, the aggressor
    // rates summed over the set.
    const std::vector<double> x =
        Predictor::features(PredictorKind::kMise, victim, {&a1, &a2});
    EXPECT_EQ(x, (std::vector<double>{0.0625, 0.09375, 0.005859375,
                                      0.15625}));
}

TEST(AlvesDrummondKind, FeaturesSaturateSummedContentiousness)
{
    WorkloadSignature victim, a1, a2;
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        victim.characterization.sensitivity[d] = 0.1 * (d + 1);
        a1.characterization.contentiousness[d] = 0.2 * (d + 1);
        a2.characterization.contentiousness[d] = 0.05;
    }
    const std::vector<double> x = Predictor::features(
        PredictorKind::kAlvesDrummond, victim, {&a1, &a2});
    ASSERT_EQ(x.size(), static_cast<size_t>(rulers::kNumDimensions));
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        // Sen_i * (1 - exp(-sum Con_i)), bit for bit.
        const double con = a1.characterization.contentiousness[d] +
                           a2.characterization.contentiousness[d];
        EXPECT_EQ(x[d], victim.characterization.sensitivity[d] *
                            (1.0 - std::exp(-con)));
    }
    // Dimension 0: 0.1 * (1 - exp(-0.25)).
    EXPECT_NEAR(x[0], 0.022119921692859514, 1e-17);
}

TEST(PmuKind, NonFiniteRateFallsBackToWorstCase)
{
    const SyntheticCorpus corpus = makeCorpus(8);
    const Predictor model =
        Predictor::train(PredictorKind::kPmu, corpus.samples);
    WorkloadSignature victim = corpus.signatures[0];
    victim.pmu[3] = std::numeric_limits<double>::infinity();

    const std::uint64_t invalid0 = counter("predictor.invalid_inputs");
    const std::size_t incidents0 = obs::IncidentLog::global().count();
    EXPECT_EQ(model.predictDegradation(victim, corpus.signatures[1]),
              1.0);
    EXPECT_EQ(counter("predictor.invalid_inputs"), invalid0 + 1);
    EXPECT_GT(obs::IncidentLog::global().count(), incidents0);
}

TEST(PredictorZoo, TrainsOnARealLabCorpus)
{
    // End-to-end at tiny intervals: six training workloads give 30
    // ordered pairs, enough for every model (the PMU baseline needs
    // the most, 2 * 11 + 1).
    Lab lab(sim::MachineConfig::ivyBridge(), 800, 2'000);
    const auto all = workload::spec2006::evenNumbered();
    const std::vector<workload::WorkloadProfile> train(
        all.begin(), all.begin() + 6);

    const std::uint64_t trained0 = counter("predictor.trained");
    const PredictorZoo zoo =
        trainPredictorZoo(lab, train, CoLocationMode::kSmt);
    EXPECT_EQ(counter("predictor.trained"), trained0 + 4);

    ASSERT_EQ(zoo.signatures.size(), train.size());
    for (const WorkloadSignature &s : zoo.signatures) {
        EXPECT_TRUE(s.valid) << s.name;
        EXPECT_GT(s.soloIpc, 0.0) << s.name;
        EXPECT_GT(s.soloCounters.cycles, 0u) << s.name;
    }
    ASSERT_EQ(zoo.predictors.size(), 4u);
    for (const auto &p : zoo.predictors) {
        SCOPED_TRACE(std::string(p->name()));
        for (std::size_t v = 0; v < zoo.signatures.size(); ++v) {
            for (std::size_t a = 0; a < zoo.signatures.size(); ++a) {
                if (v == a)
                    continue;
                const double deg = p->predictDegradation(
                    zoo.signatures[v], zoo.signatures[a]);
                EXPECT_GE(deg, 0.0);
                EXPECT_LE(deg, 1.0);
            }
        }
    }
}

} // namespace
} // namespace smite::core
