/**
 * @file
 * The predictor zoo: one interface over every QoS/slowdown predictor.
 *
 * SMiTe's Ruler regression (Equation 3) and the PMU-counter baseline
 * (Equation 9) are two points in a larger design space of
 * interference predictors. This module pins the shared contract —
 * characterize a workload once into a WorkloadSignature, then predict
 * the degradation of a victim next to an arbitrary co-runner set —
 * and populates the space with four implementations, each a linear
 * regression over its own feature row:
 *
 *  - SmitePredictor: the paper's Ruler model (Equation 3);
 *  - PmuPredictor:   the paper's PMU baseline (Equation 9);
 *  - MisePredictor:  a MISE-style estimator (Subramanian et al.,
 *    "Predictable Performance and Fairness Through Accurate Slowdown
 *    Estimation in Shared Main Memory Systems"): slowdown is driven
 *    by memory-request behaviour, reduced here to a regression over
 *    the simulator's existing solo cache/DRAM counter rates and their
 *    victim x aggressor interference products;
 *  - AlvesDrummondPredictor: the cross-application interference model
 *    of Alves & Drummond ("A Quantitative Model for Predicting
 *    Cross-application Interference in Virtual Environments"):
 *    per-dimension sensitivity scaled by a *saturating* function of
 *    aggregate co-runner pressure, fit by least squares.
 *
 * All four train on the same measured-pair corpus (trainingCorpus)
 * so head-to-head comparisons (bench_predictor_zoo) are apples to
 * apples. Every prediction goes through Predictor::predictDegradation,
 * which validates the signatures, clamps into [0, 1] and maintains
 * the `predictor.*` counters (docs/OBSERVABILITY.md).
 */

#ifndef SMITE_CORE_PREDICTOR_H
#define SMITE_CORE_PREDICTOR_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/characterize.h"
#include "sim/counters.h"
#include "stats/regression.h"
#include "workload/profile.h"

namespace smite::core {

class Lab;

/**
 * Everything any predictor in the zoo may ask about one workload,
 * gathered once (signatureOf) and reused across predictors. The
 * characterization is the expensive part (one solo run plus one
 * co-run per Ruler dimension); the PMU rates, solo counters and solo
 * IPC all fall out of a single solo run.
 */
struct WorkloadSignature {
    std::string name;
    Characterization characterization;
    PmuProfile pmu{};
    sim::CounterBlock soloCounters;
    double soloIpc = 0.0;
    /** False when any underlying measurement failed past its retry
        budget; predictors treat the signature as unusable. */
    bool valid = true;
};

/**
 * Gather one workload's signature through a Lab (repeated runs
 * replay from the store). @p threads instances of the workload, one per core,
 * are characterized together and their solo IPC aggregated — the
 * paper's 6-thread (SMT) and 3-thread (CMP) CloudSuite protocol; the
 * PMU rates and solo counters always come from a single-thread run.
 */
WorkloadSignature signatureOf(Lab &lab,
                              const workload::WorkloadProfile &profile,
                              CoLocationMode mode, int threads = 1);

/**
 * Batch variant: fans the underlying measurements out through the
 * Lab's parallel batch APIs; result i belongs to profiles[i] and is
 * byte-identical to calling signatureOf() serially.
 */
std::vector<WorkloadSignature>
signaturesOf(Lab &lab,
             const std::vector<workload::WorkloadProfile> &profiles,
             CoLocationMode mode, int threads = 1);

/** One training observation shared by every predictor in the zoo. */
struct PredictorSample {
    const WorkloadSignature *victim = nullptr;
    const WorkloadSignature *aggressor = nullptr;
    double degradation = 0.0;  ///< measured Deg(victim|aggressor)
};

/**
 * A trained QoS/slowdown predictor.
 *
 * The public predict entry points are non-virtual and the only way
 * to a prediction: they validate the signatures, delegate to
 * rawDegradation(), clamp the result into [0, 1] and maintain the
 * `predictor.*` counters. Implementations only provide the raw model
 * arithmetic.
 */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /** Short stable identifier ("smite", "pmu", "mise", "alves-drummond"). */
    virtual std::string_view name() const = 0;

    /**
     * Machine runs needed to build a *new* workload's signature as
     * far as this predictor reads it (Ruler-based predictors pay one
     * solo run plus one co-run per dimension; counter-based ones pay
     * a single solo run). Shared ruler baselines amortize across
     * workloads and are excluded.
     */
    virtual int signatureRuns() const = 0;

    /**
     * Predicted degradation (1 - QoS) of @p victim co-located with
     * the @p aggressors set. Degradations are fractions of solo
     * performance, so regression overshoot is clamped into [0, 1]
     * (and counted in `predictor.clamped`). An empty set predicts 0
     * (solo). Invalid signatures and non-finite predictions yield
     * the conservative worst case 1.0 with an incident-log record.
     */
    double predictDegradation(
        const WorkloadSignature &victim,
        const std::vector<const WorkloadSignature *> &aggressors) const;

    /** Pairwise convenience overload. */
    double predictDegradation(const WorkloadSignature &victim,
                              const WorkloadSignature &aggressor) const;

  protected:
    /** Unguarded model arithmetic over validated signatures. */
    virtual double rawDegradation(
        const WorkloadSignature &victim,
        const std::vector<const WorkloadSignature *> &aggressors)
        const = 0;
};

/**
 * The paper's Ruler regression (Section III-C1, Equation 3): the
 * degradation of victim A is a linear combination of the
 * per-dimension products of A's sensitivity and the co-runners'
 * summed contentiousness,
 *
 *   Deg(A|B) = sum_i c_i * Sen_i^A * Con_i^B + c_0,
 *
 * with the coefficients fit by least squares against measured pair
 * degradations.
 */
class SmitePredictor final : public Predictor
{
  public:
    /**
     * Fit Equation 3 on the shared corpus.
     * @param ridge small L2 regularizer for numerical robustness
     * @throws std::invalid_argument without more samples than
     *         sharing dimensions
     */
    static SmitePredictor train(const std::vector<PredictorSample> &samples,
                                double ridge = 1e-8);

    std::string_view name() const override { return "smite"; }
    int signatureRuns() const override
    {
        return 1 + rulers::kNumDimensions;
    }

    /** Feature row: x_i = Sen_i^A * sum_B Con_i^B. */
    static std::vector<double> features(
        const WorkloadSignature &victim,
        const std::vector<const WorkloadSignature *> &aggressors);

    /** The per-dimension coefficients c_i (in dimension order). */
    const std::vector<double> &coefficients() const
    {
        return model_.weights();
    }

    /** The constant term c_0 (residual interference). */
    double constantTerm() const { return model_.intercept(); }

  protected:
    double rawDegradation(const WorkloadSignature &victim,
                          const std::vector<const WorkloadSignature *>
                              &aggressors) const override;

  private:
    explicit SmitePredictor(stats::LinearModel model)
        : model_(std::move(model))
    {}

    stats::LinearModel model_;
};

/**
 * The paper's PMU-counter baseline (Section IV-B1, Equation 9): the
 * strongest model the paper could build without Rulers, a linear
 * regression over the eleven solo-run counter rates of the victim and
 * of its co-runners,
 *
 *   Deg(A|B) = sum_i (c_i^A PMU_i^A + c_i^B PMU_i^B) + c_0.
 */
class PmuPredictor final : public Predictor
{
  public:
    /**
     * Fit Equation 9 on the shared corpus.
     * @param ridge small L2 regularizer; PMU rates are collinear
     *        (e.g. L2 hits vs L1 misses), so a nonzero default keeps
     *        the normal equations well-posed
     * @throws std::invalid_argument without more samples than
     *         2 * kNumPmuRates
     */
    static PmuPredictor train(const std::vector<PredictorSample> &samples,
                              double ridge = 1e-6);

    std::string_view name() const override { return "pmu"; }
    int signatureRuns() const override { return 1; }

    /**
     * Feature row: the victim's rates, then the co-runners' summed
     * rates.
     */
    static std::vector<double> features(
        const WorkloadSignature &victim,
        const std::vector<const WorkloadSignature *> &aggressors);

  protected:
    double rawDegradation(const WorkloadSignature &victim,
                          const std::vector<const WorkloadSignature *>
                              &aggressors) const override;

  private:
    explicit PmuPredictor(stats::LinearModel model)
        : model_(std::move(model))
    {}

    stats::LinearModel model_;
};

/**
 * MISE-style slowdown estimator from memory-request behaviour.
 *
 * MISE observes that slowdown tracks the ratio of memory-request
 * service rates alone vs. shared. Without a per-request DRAM model in
 * the loop, the zoo's reduction regresses degradation on the solo
 * memory-demand rates the simulator already counts — the victim's
 * DRAM and shared-L3 demand per cycle, the aggregate aggressor
 * demand, and their products (the interference terms: a memory-bound
 * victim next to memory-bound aggressors slows the most). Four
 * features; see features().
 */
class MisePredictor final : public Predictor
{
  public:
    /** Number of regression features. */
    static constexpr int kNumFeatures = 4;

    /** Fit the memory-rate regression on the shared corpus. */
    static MisePredictor train(const std::vector<PredictorSample> &samples,
                               double ridge = 1e-8);

    std::string_view name() const override { return "mise"; }
    int signatureRuns() const override { return 1; }

    /**
     * Feature row of one (victim, aggressor set): victim DRAM demand
     * per cycle, aggregate aggressor DRAM demand, and the DRAM and
     * shared-L3 interference products.
     */
    static std::vector<double> features(
        const WorkloadSignature &victim,
        const std::vector<const WorkloadSignature *> &aggressors);

  protected:
    double rawDegradation(const WorkloadSignature &victim,
                          const std::vector<const WorkloadSignature *>
                              &aggressors) const override;

  private:
    explicit MisePredictor(stats::LinearModel model)
        : model_(std::move(model))
    {}

    stats::LinearModel model_;
};

/**
 * Alves-Drummond cross-application interference model over the
 * characterization vectors: per dimension, the victim's sensitivity
 * scaled by a saturating exponential of the aggregate co-runner
 * contentiousness,
 *
 *   x_i = Sen_i^A * (1 - exp(-sum_B Con_i^B)),
 *
 * fit by least squares. The saturation is the model's point: doubling
 * an already-contended resource's pressure does not double the
 * interference.
 */
class AlvesDrummondPredictor final : public Predictor
{
  public:
    /** Fit the saturating-feature regression on the shared corpus. */
    static AlvesDrummondPredictor
    train(const std::vector<PredictorSample> &samples, double ridge = 1e-8);

    std::string_view name() const override { return "alves-drummond"; }
    int signatureRuns() const override
    {
        return 1 + rulers::kNumDimensions;
    }

    /** Saturating feature row (one per sharing dimension). */
    static std::vector<double> features(
        const WorkloadSignature &victim,
        const std::vector<const WorkloadSignature *> &aggressors);

  protected:
    double rawDegradation(const WorkloadSignature &victim,
                          const std::vector<const WorkloadSignature *>
                              &aggressors) const override;

  private:
    explicit AlvesDrummondPredictor(stats::LinearModel model)
        : model_(std::move(model))
    {}

    stats::LinearModel model_;
};

/**
 * A measured training corpus: the training set's signatures and one
 * sample per ordered pair of them. Samples point into `signatures`,
 * so a corpus moves but never copies.
 */
struct TrainingCorpus {
    /** Signatures of the training set, in input order. */
    std::vector<WorkloadSignature> signatures;
    /** Surviving ordered pairs, in the serial protocol's order. */
    std::vector<PredictorSample> samples;

    TrainingCorpus() = default;
    TrainingCorpus(TrainingCorpus &&) = default;
    TrainingCorpus &operator=(TrainingCorpus &&) = default;
    TrainingCorpus(const TrainingCorpus &) = delete;
    TrainingCorpus &operator=(const TrainingCorpus &) = delete;
};

/**
 * Measure a training corpus: gather the training set's signatures and
 * measure all ordered co-location pairs (both phases through the
 * Lab's parallel batch APIs). One drop rule serves every fit: a
 * sample resting on a failed measurement — anything behind either
 * signature, or the pair itself — is left out, counted in
 * `lab.dropped_samples` and logged. Each predictor's train() then
 * fits on the samples.
 */
TrainingCorpus
trainingCorpus(Lab &lab,
               const std::vector<workload::WorkloadProfile> &training_set,
               CoLocationMode mode);

/** The four predictors trained on one shared corpus. */
struct PredictorZoo {
    /** Signatures of the training set, in input order. */
    std::vector<WorkloadSignature> signatures;
    /** Trained predictors: smite, pmu, mise, alves-drummond. */
    std::vector<std::unique_ptr<Predictor>> predictors;
};

/**
 * Train every predictor in the zoo on one trainingCorpus().
 *
 * @throws std::invalid_argument if too few samples survive for any
 *         model (the PMU baseline needs the most: > 22)
 */
PredictorZoo
trainPredictorZoo(Lab &lab,
                  const std::vector<workload::WorkloadProfile> &training_set,
                  CoLocationMode mode);

} // namespace smite::core

#endif // SMITE_CORE_PREDICTOR_H
