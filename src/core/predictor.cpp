#include "core/predictor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/experiment.h"
#include "core/parallel.h"
#include "fault/fault.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smite::core {

namespace {

/** A rate per solo cycle, 0 for an empty interval. */
double
soloRate(std::uint64_t events, std::uint64_t cycles)
{
    return cycles == 0 ? 0.0
                       : static_cast<double>(events) /
                             static_cast<double>(cycles);
}

/** Element-wise sum of the aggressor set's contentiousness vectors. */
Characterization
combinedContentiousness(
    const std::vector<const WorkloadSignature *> &aggressors)
{
    Characterization combined;
    for (const WorkloadSignature *a : aggressors) {
        for (int d = 0; d < rulers::kNumDimensions; ++d)
            combined.contentiousness[d] +=
                a->characterization.contentiousness[d];
    }
    return combined;
}

/** Element-wise sum of the aggressor set's PMU rates. */
PmuProfile
combinedPmu(const std::vector<const WorkloadSignature *> &aggressors)
{
    PmuProfile combined{};
    for (const WorkloadSignature *a : aggressors) {
        for (int r = 0; r < sim::kNumPmuRates; ++r)
            combined[r] += a->pmu[r];
    }
    return combined;
}

/** Is every number a predictor would read from @p s finite? */
bool
signatureFinite(const WorkloadSignature &s)
{
    if (!std::isfinite(s.soloIpc))
        return false;
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        if (!std::isfinite(s.characterization.sensitivity[d]) ||
            !std::isfinite(s.characterization.contentiousness[d]))
            return false;
    }
    for (int r = 0; r < sim::kNumPmuRates; ++r) {
        if (!std::isfinite(s.pmu[r]))
            return false;
    }
    return true;
}

/** What distinguishes one PredictorKind's fit, beyond its features. */
struct KindTraits {
    std::string_view name;
    std::size_t numFeatures;
    const char *featureNoun;  ///< "need more samples than ..."
    double ridge;             ///< default L2 regularizer
    bool readsRulers;         ///< signature needs the Ruler co-runs
};

/** Indexed by PredictorKind. */
constexpr KindTraits kKindTraits[] = {
    {"smite", rulers::kNumDimensions, "sharing dimensions", 1e-8, true},
    {"pmu", 2 * sim::kNumPmuRates, "PMU features", 1e-6, false},
    {"mise", 4, "MISE features", 1e-8, false},
    {"alves-drummond", rulers::kNumDimensions, "sharing dimensions", 1e-8,
     true},
};

const KindTraits &
traits(PredictorKind kind)
{
    return kKindTraits[static_cast<std::size_t>(kind)];
}

/** Minimum solo IPC a prediction denominator may rest on. */
constexpr double kMinSoloIpc = 1e-9;

obs::Counter &
predictionsCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("predictor.predictions");
    return c;
}

obs::Counter &
clampedCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("predictor.clamped");
    return c;
}

obs::Counter &
invalidCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("predictor.invalid_inputs");
    return c;
}

} // namespace

Predictor
Predictor::train(PredictorKind kind,
                 const std::vector<PredictorSample> &samples,
                 std::optional<double> ridge)
{
    const KindTraits &t = traits(kind);
    obs::Span span("predictor.fit", std::string(t.name));
    if (samples.size() <= t.numFeatures) {
        throw std::invalid_argument(
            std::string("need more samples than ") + t.featureNoun);
    }
    // One feature row per sample (the victim next to its one
    // aggressor), targets the measured degradations.
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    x.reserve(samples.size());
    y.reserve(samples.size());
    for (const PredictorSample &s : samples) {
        x.push_back(features(kind, *s.victim, {s.aggressor}));
        y.push_back(s.degradation);
    }
    return Predictor(kind, stats::LinearModel::fit(
                               x, y, ridge.value_or(t.ridge)));
}

std::vector<double>
Predictor::features(PredictorKind kind, const WorkloadSignature &victim,
                    const std::vector<const WorkloadSignature *> &aggressors)
{
    switch (kind) {
    case PredictorKind::kSmite: {
        const Characterization combined =
            combinedContentiousness(aggressors);
        std::vector<double> x(rulers::kNumDimensions);
        for (int d = 0; d < rulers::kNumDimensions; ++d) {
            x[d] = victim.characterization.sensitivity[d] *
                   combined.contentiousness[d];
        }
        return x;
    }
    case PredictorKind::kPmu: {
        const PmuProfile combined = combinedPmu(aggressors);
        std::vector<double> x;
        x.reserve(2 * sim::kNumPmuRates);
        x.insert(x.end(), victim.pmu.begin(), victim.pmu.end());
        x.insert(x.end(), combined.begin(), combined.end());
        return x;
    }
    case PredictorKind::kMise: {
        const sim::CounterBlock &v = victim.soloCounters;
        const double v_dram = soloRate(v.l3Misses, v.cycles);
        const double v_l3 = soloRate(v.l2Misses, v.cycles);
        double a_dram = 0.0, a_l3 = 0.0;
        for (const WorkloadSignature *a : aggressors) {
            const sim::CounterBlock &c = a->soloCounters;
            a_dram += soloRate(c.l3Misses, c.cycles);
            a_l3 += soloRate(c.l2Misses, c.cycles);
        }
        return {v_dram, a_dram, v_dram * a_dram, v_l3 * a_l3};
    }
    case PredictorKind::kAlvesDrummond: {
        const Characterization combined =
            combinedContentiousness(aggressors);
        std::vector<double> x(rulers::kNumDimensions);
        for (int d = 0; d < rulers::kNumDimensions; ++d) {
            x[d] = victim.characterization.sensitivity[d] *
                   (1.0 - std::exp(-combined.contentiousness[d]));
        }
        return x;
    }
    }
    throw std::logic_error("unreachable");
}

std::string_view
Predictor::name() const
{
    return traits(kind_).name;
}

int
Predictor::signatureRuns() const
{
    return traits(kind_).readsRulers ? 1 + rulers::kNumDimensions : 1;
}

double
Predictor::predictDegradation(
    const WorkloadSignature &victim,
    const std::vector<const WorkloadSignature *> &aggressors) const
{
    predictionsCounter().add();
    if (aggressors.empty())
        return 0.0;  // running solo

    // Validate inputs before any arithmetic: a signature built on a
    // failed measurement or a near-zero solo IPC denominator cannot
    // support a meaningful ratio, so fall back to the conservative
    // worst case rather than propagate garbage into admission
    // decisions.
    bool usable = victim.valid && signatureFinite(victim) &&
                  victim.soloIpc > kMinSoloIpc;
    for (const WorkloadSignature *a : aggressors)
        usable = usable && a != nullptr && a->valid && signatureFinite(*a);
    if (!usable) {
        invalidCounter().add();
        obs::IncidentLog::global().record(
            std::string(name()) + " predictor: unusable signature for " +
            victim.name + ", using worst case 1.0");
        return 1.0;
    }

    const double raw = model_.predict(features(kind_, victim, aggressors));
    if (!std::isfinite(raw)) {
        invalidCounter().add();
        obs::IncidentLog::global().record(
            std::string(name()) +
            " predictor: non-finite prediction for " + victim.name +
            ", using worst case 1.0");
        return 1.0;
    }
    if (raw < 0.0 || raw > 1.0)
        clampedCounter().add();
    return std::clamp(raw, 0.0, 1.0);
}

double
Predictor::predictDegradation(const WorkloadSignature &victim,
                              const WorkloadSignature &aggressor) const
{
    return predictDegradation(victim, {&aggressor});
}

WorkloadSignature
signatureOf(Lab &lab, const workload::WorkloadProfile &profile,
            CoLocationMode mode, int threads)
{
    return signaturesOf(lab, {profile}, mode, threads).front();
}

std::vector<WorkloadSignature>
signaturesOf(Lab &lab,
             const std::vector<workload::WorkloadProfile> &profiles,
             CoLocationMode mode, int threads)
{
    // Each measurement is asked once: a failure past its retry budget
    // is counted and logged once, and leaves the signature invalid.
    const std::vector<Characterization> chars =
        lab.characterizeAll(profiles, mode, threads);
    std::vector<WorkloadSignature> sigs(profiles.size());
    parallelFor(
        profiles.size(),
        [&](std::size_t i) {
            WorkloadSignature &sig = sigs[i];
            sig.name = profiles[i].name;
            sig.characterization = chars[i];
            sig.valid = chars[i].valid;
            if (!sig.valid)
                return;
            try {
                sig.soloCounters = lab.soloCounters(profiles[i]);
                sig.pmu = sig.soloCounters.pmuRates();
                sig.soloIpc = lab.soloIpc(profiles[i], threads);
            } catch (const fault::MeasurementError &) {
                // Retry budget spent (already logged by the Lab); the
                // signature is unusable but the batch survives.
                sig.valid = false;
            }
        },
        lab.parallelism());
    return sigs;
}

TrainingCorpus
trainingCorpus(Lab &lab,
               const std::vector<workload::WorkloadProfile> &training_set,
               CoLocationMode mode)
{
    obs::Span span("predictor.corpus", modeName(mode));
    static obs::Counter &dropped =
        obs::Registry::global().counter("lab.dropped_samples");

    TrainingCorpus corpus;
    corpus.signatures = signaturesOf(lab, training_set, mode);
    const std::vector<std::vector<double>> pairs =
        lab.measureAllPairs(training_set, mode);
    for (std::size_t i = 0; i < training_set.size(); ++i) {
        for (std::size_t j = 0; j < training_set.size(); ++j) {
            if (i == j)
                continue;
            // A sample resting on a failed measurement is dropped
            // from every fit, not allowed to poison one.
            if (!corpus.signatures[i].valid ||
                !corpus.signatures[j].valid ||
                std::isnan(pairs[i][j])) {
                dropped.add();
                obs::IncidentLog::global().record(
                    "training corpus: dropped sample " +
                    training_set[i].name + "|" + training_set[j].name +
                    " (" + modeName(mode) + ")");
                continue;
            }
            corpus.samples.push_back({&corpus.signatures[i],
                                      &corpus.signatures[j],
                                      pairs[i][j]});
        }
    }
    return corpus;
}

PredictorZoo
trainPredictorZoo(Lab &lab,
                  const std::vector<workload::WorkloadProfile> &training_set,
                  CoLocationMode mode)
{
    TrainingCorpus corpus = trainingCorpus(lab, training_set, mode);
    PredictorZoo zoo;
    for (const PredictorKind kind : kAllPredictorKinds) {
        zoo.predictors.push_back(std::make_unique<Predictor>(
            Predictor::train(kind, corpus.samples)));
    }
    zoo.signatures = std::move(corpus.signatures);

    static obs::Counter &trained =
        obs::Registry::global().counter("predictor.trained");
    trained.add(zoo.predictors.size());
    return zoo;
}

} // namespace smite::core
