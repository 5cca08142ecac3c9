/**
 * @file
 * The predictor zoo: one predictor type over every QoS/slowdown model.
 *
 * SMiTe's Ruler regression (Equation 3) and the PMU-counter baseline
 * (Equation 9) are two points in a larger design space of
 * interference predictors. This module pins the shared contract —
 * characterize a workload once into a WorkloadSignature, then predict
 * the degradation of a victim next to an arbitrary co-runner set —
 * and populates the space with four kinds (PredictorKind), each a
 * linear regression over its own feature row: the paper's two, a
 * MISE-style estimator (Subramanian et al., "Predictable Performance
 * and Fairness Through Accurate Slowdown Estimation in Shared Main
 * Memory Systems") and the cross-application interference model of
 * Alves & Drummond ("A Quantitative Model for Predicting
 * Cross-application Interference in Virtual Environments").
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
#include <optional>
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
 * gathered once (signaturesOf) and reused across predictors. The
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
 * Gather the signatures of @p profiles through a Lab (repeated runs
 * replay from the store); result i belongs to profiles[i]. @p threads
 * instances of each workload, one per core, are characterized
 * together and their solo IPC aggregated — the paper's 6-thread (SMT)
 * and 3-thread (CMP) CloudSuite protocol; the PMU rates and solo
 * counters always come from a single-thread run. The
 * characterizations fan out through Lab::characterizeAll, then one
 * parallel batch asks each valid profile's solo counters and solo
 * IPC once; a measurement that fails past its retry budget leaves
 * its signature invalid.
 */
std::vector<WorkloadSignature>
signaturesOf(Lab &lab,
             const std::vector<workload::WorkloadProfile> &profiles,
             CoLocationMode mode, int threads = 1);

/** signaturesOf() of the one workload @p profile. */
WorkloadSignature signatureOf(Lab &lab,
                              const workload::WorkloadProfile &profile,
                              CoLocationMode mode, int threads = 1);

/** One training observation shared by every predictor in the zoo. */
struct PredictorSample {
    const WorkloadSignature *victim = nullptr;
    const WorkloadSignature *aggressor = nullptr;
    double degradation = 0.0;  ///< measured Deg(victim|aggressor)
};

/**
 * Which regression a Predictor fits: each kind is one feature row
 * over the same signatures, fit by least squares on the same corpus.
 *
 *  - kSmite: the paper's Ruler regression (Section III-C1, Equation 3),
 *      Deg(A|B) = sum_i c_i * Sen_i^A * Con_i^B + c_0,
 *    one feature per sharing dimension, x_i = Sen_i^A * sum_B Con_i^B;
 *  - kPmu: the paper's PMU-counter baseline (Section IV-B1,
 *    Equation 9), the strongest model the paper could build without
 *    Rulers,
 *      Deg(A|B) = sum_i (c_i^A PMU_i^A + c_i^B PMU_i^B) + c_0,
 *    over the victim's eleven solo-run rates, then the co-runners'
 *    summed rates;
 *  - kMise: MISE observes that slowdown tracks the ratio of
 *    memory-request service rates alone vs. shared. Without a
 *    per-request DRAM model in the loop, the reduction regresses on
 *    the solo memory-demand rates the simulator already counts (DRAM
 *    = l3Misses, shared L3 = l2Misses, per solo cycle): the victim's
 *    DRAM demand, the aggregate aggressor DRAM demand, and the DRAM
 *    and L3 victim x aggressor products (a memory-bound victim next
 *    to memory-bound aggressors slows the most);
 *  - kAlvesDrummond: per dimension, the victim's sensitivity scaled by
 *    a saturating exponential of the aggregate co-runner pressure,
 *      x_i = Sen_i^A * (1 - exp(-sum_B Con_i^B)):
 *    doubling an already-contended resource's pressure does not
 *    double the interference.
 */
enum class PredictorKind { kSmite, kPmu, kMise, kAlvesDrummond };

/** Every kind, in zoo order. */
inline constexpr PredictorKind kAllPredictorKinds[] = {
    PredictorKind::kSmite, PredictorKind::kPmu, PredictorKind::kMise,
    PredictorKind::kAlvesDrummond};

/**
 * A trained QoS/slowdown predictor: a PredictorKind and the linear
 * model fit over its feature row.
 *
 * The predict entry points are the only way to a prediction: they
 * validate the signatures, evaluate the model, clamp the result into
 * [0, 1] and maintain the `predictor.*` counters.
 */
class Predictor
{
  public:
    /**
     * Fit @p kind on the shared corpus, one feature row per sample.
     * @param ridge L2 regularizer; unset uses the kind's default
     *        (1e-8, or 1e-6 for kPmu, whose rates are collinear, e.g.
     *        L2 hits vs L1 misses, so the normal equations stay
     *        well-posed)
     * @throws std::invalid_argument without more samples than features
     */
    static Predictor train(PredictorKind kind,
                           const std::vector<PredictorSample> &samples,
                           std::optional<double> ridge = std::nullopt);

    /** @p kind's feature row for @p victim next to the @p aggressors. */
    static std::vector<double> features(
        PredictorKind kind, const WorkloadSignature &victim,
        const std::vector<const WorkloadSignature *> &aggressors);

    /** Short stable identifier ("smite", "pmu", "mise", "alves-drummond"). */
    std::string_view name() const;

    /**
     * Machine runs needed to build a *new* workload's signature as
     * far as this predictor reads it (Ruler-based kinds pay one solo
     * run plus one co-run per dimension; counter-based ones pay a
     * single solo run). Shared ruler baselines amortize across
     * workloads and are excluded.
     */
    int signatureRuns() const;

    /** The fitted coefficients c_i, in feature order. */
    const std::vector<double> &coefficients() const
    {
        return model_.weights();
    }

    /** The constant term c_0 (residual interference). */
    double constantTerm() const { return model_.intercept(); }

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

  private:
    Predictor(PredictorKind kind, stats::LinearModel model)
        : kind_(kind), model_(std::move(model))
    {}

    PredictorKind kind_;
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
 * `lab.dropped_samples` and logged. Predictor::train() then fits
 * each kind on the samples.
 */
TrainingCorpus
trainingCorpus(Lab &lab,
               const std::vector<workload::WorkloadProfile> &training_set,
               CoLocationMode mode);

/** Every PredictorKind trained on one shared corpus. */
struct PredictorZoo {
    /** Signatures of the training set, in input order. */
    std::vector<WorkloadSignature> signatures;
    /** Trained predictors, in kAllPredictorKinds order. */
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
