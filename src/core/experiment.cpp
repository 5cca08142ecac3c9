#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "core/parallel.h"
#include "obs/env.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/summary.h"
#include "workload/generator.h"

namespace smite::core {

namespace {

/** Aggregate IPC over a span of counter blocks. */
double
aggregateIpc(const std::vector<sim::CounterBlock> &counters,
             std::size_t begin, std::size_t end)
{
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i)
        sum += counters[i].ipc();
    return sum;
}

/**
 * Place @p threads instances of @p profile (seeds 1..threads) on
 * context 0 of cores 0..threads-1. @p sources owns them and must
 * outlive the run.
 */
std::vector<sim::Placement>
placeApp(const workload::WorkloadProfile &profile, int threads,
         std::vector<workload::ProfileUopSource> &sources)
{
    sources.reserve(static_cast<std::size_t>(threads));
    std::vector<sim::Placement> placements;
    for (int t = 0; t < threads; ++t) {
        sources.emplace_back(profile, /*seed=*/1 + t);
        placements.push_back(sim::Placement{t, 0, &sources.back()});
    }
    return placements;
}

/**
 * Slot of co-runner @p k next to a @p threads -thread application:
 * the sibling context of core k (SMT) or the k-th core past the
 * application's (CMP).
 */
sim::Placement
coRunnerPlacement(CoLocationMode mode, int threads, int k,
                  sim::UopSource *source)
{
    return mode == CoLocationMode::kSmt
               ? sim::Placement{k, 1, source}
               : sim::Placement{threads + k, 0, source};
}

} // namespace

Lab::Lab(const sim::MachineConfig &config, sim::Cycle warmup,
         sim::Cycle measure)
    : machine_(config), suite_(rulers::defaultSuite(config)),
      warmup_(warmup), measure_(measure)
{
}

Lab::Lab(const sim::MachineConfig &config, const std::string &cache_path,
         sim::Cycle warmup, sim::Cycle measure)
    : Lab(config, warmup, measure)
{
    if (!cache_path.empty())
        machine_.setRunLog(std::make_shared<sim::RunLog>(cache_path));
}

int
Lab::parallelism() const
{
    return parallelism_ > 0 ? parallelism_ : defaultThreadCount();
}

int
Lab::maxAttempts() const
{
    if (maxAttempts_ > 0)
        return maxAttempts_;
    return obs::envPositive("SMITE_LAB_RETRIES", 3);
}

int
Lab::trials() const
{
    if (trials_ > 0)
        return trials_;
    return obs::envPositive("SMITE_LAB_TRIALS", 1);
}

void
Lab::onMeasurementFailure(const std::string &key, const char *what,
                          int attempt, int max_attempts)
{
    static obs::Counter &retries =
        obs::Registry::global().counter("lab.retries");
    static obs::Counter &failures =
        obs::Registry::global().counter("lab.failures");
    if (attempt >= max_attempts) {
        failures.add();
        obs::IncidentLog::global().record(
            "measurement '" + key + "' failed after " +
            std::to_string(attempt) + " attempts: " + what);
        throw;  // rethrow the MeasurementError being handled
    }
    retries.add();
    // Exponential backoff, capped: on a real cluster a failed run is
    // re-queued, not re-fired instantly. Unreachable without faults
    // armed, so plain runs never sleep.
    std::this_thread::sleep_for(
        std::chrono::microseconds(50ull << std::min(attempt - 1, 6)));
}

std::vector<double>
Lab::measureTrials(
    const std::string &key,
    const std::function<std::vector<double>(const std::string &)> &fn)
{
    const int n = trials();
    static obs::Counter &trial_count =
        obs::Registry::global().counter("lab.trials");
    trial_count.add(static_cast<std::uint64_t>(n));
    if (n <= 1)
        return withRetry(key, fn);
    std::vector<std::vector<double>> runs;
    runs.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t)
        runs.push_back(withRetry(key + "/t" + std::to_string(t), fn));
    std::vector<double> out(runs.front().size());
    for (std::size_t c = 0; c < out.size(); ++c) {
        std::vector<double> samples;
        samples.reserve(runs.size());
        for (const auto &r : runs)
            samples.push_back(r[c]);
        out[c] = stats::robustMedian(samples);
    }
    return out;
}

double
Lab::soloRun(const workload::WorkloadProfile &profile, int threads) const
{
    if (threads < 1 || threads > machine_.config().numCores)
        throw std::invalid_argument("bad thread count");
    std::vector<workload::ProfileUopSource> sources;
    const auto counters = machine_.run(placeApp(profile, threads, sources),
                                       warmup_, measure_);
    return aggregateIpc(counters, 0, counters.size());
}

double
Lab::rulerBaseline(std::size_t d, CoLocationMode mode, int threads) const
{
    const rulers::Ruler &ruler = suite_[d];
    obs::Span span("characterizer.baseline", ruler.name());
    std::vector<std::unique_ptr<sim::UopSource>> sources;
    std::vector<sim::Placement> placements;
    for (int t = 0; t < threads; ++t) {
        sources.push_back(ruler.makeSource());
        placements.push_back(
            coRunnerPlacement(mode, threads, t, sources.back().get()));
    }
    const auto counters = machine_.run(placements, warmup_, measure_);
    return aggregateIpc(counters, 0, counters.size());
}

std::pair<double, double>
Lab::rulerCoRun(const workload::WorkloadProfile &profile, std::size_t d,
                CoLocationMode mode, int threads) const
{
    // App threads + Ruler instances, the Rulers where they sat for
    // the baseline.
    std::vector<workload::ProfileUopSource> app_sources;
    std::vector<sim::Placement> placements =
        placeApp(profile, threads, app_sources);
    std::vector<std::unique_ptr<sim::UopSource>> co_rulers;
    for (int t = 0; t < threads; ++t) {
        co_rulers.push_back(suite_[d].makeSource());
        placements.push_back(
            coRunnerPlacement(mode, threads, t, co_rulers.back().get()));
    }
    const auto counters = machine_.run(placements, warmup_, measure_);
    return {aggregateIpc(counters, 0, threads),
            aggregateIpc(counters, threads, counters.size())};
}

Characterization
Lab::characterizeRun(const workload::WorkloadProfile &profile,
                     CoLocationMode mode, int threads) const
{
    const int cores = machine_.config().numCores;
    if (threads < 1)
        throw std::invalid_argument("bad thread count");
    if (mode == CoLocationMode::kSmt && threads > cores)
        throw std::invalid_argument("too many threads for SMT mode");
    if (mode == CoLocationMode::kCmp && 2 * threads > cores)
        throw std::invalid_argument("too many threads for CMP mode");

    obs::Span characterize_span("characterizer.characterize",
                                profile.name + "#" + modeName(mode));
    const double app_solo = soloRun(profile, threads);

    Characterization result;
    for (std::size_t d = 0; d < suite_.size(); ++d) {
        obs::Span dimension_span("characterizer.dimension",
                                 suite_[d].name());

        // Ruler baseline: the same ruler instances running alone
        // (application-independent, so a replay after its first run).
        const double ruler_solo = rulerBaseline(d, mode, threads);
        const auto [app_co, ruler_co] =
            rulerCoRun(profile, d, mode, threads);

        // Equations 1 and 2.
        result.sensitivity[d] =
            app_solo > 0.0 ? (app_solo - app_co) / app_solo : 0.0;
        result.contentiousness[d] =
            ruler_solo > 0.0 ? (ruler_solo - ruler_co) / ruler_solo
                             : 0.0;
    }
    return result;
}

std::string
Lab::pairKey(const std::string &a, const std::string &b,
             CoLocationMode mode) const
{
    return a + "|" + b + "|" + modeName(mode);
}

double
Lab::soloIpc(const workload::WorkloadProfile &profile, int threads)
{
    const std::string key = profile.name + "#" + std::to_string(threads);
    obs::Span span("lab.solo_ipc", key);
    const std::vector<double> vals =
        measureTrials(key, [&](const std::string &tkey) {
            fault::maybeThrow("lab.measure", tkey);
            return std::vector<double>{soloRun(profile, threads)};
        });
    return vals[0];
}

sim::CounterBlock
Lab::soloCounters(const workload::WorkloadProfile &profile)
{
    obs::Span span("lab.solo_counters", profile.name);
    return withRetry(profile.name, [&](const std::string &tkey) {
        fault::maybeThrow("lab.measure", tkey);
        workload::ProfileUopSource source(profile);
        return machine_.runSolo(source, warmup_, measure_);
    });
}

PmuProfile
Lab::pmuProfile(const workload::WorkloadProfile &profile)
{
    obs::Span span("lab.pmu_profile", profile.name);
    // Retry lives in soloCounters(); this only derives.
    return soloCounters(profile).pmuRates();
}

Characterization
Lab::characterization(const workload::WorkloadProfile &profile,
                      CoLocationMode mode, int threads)
{
    const std::string key = profile.name + "#" + modeName(mode) + "#" +
                            std::to_string(threads);
    obs::Span span("lab.characterize", key);
    return withRetry(key, [&](const std::string &tkey) {
        fault::maybeThrow("lab.measure", tkey);
        return characterizeRun(profile, mode, threads);
    });
}

double
Lab::rulerDegradation(const workload::WorkloadProfile &profile,
                      const rulers::Ruler &ruler)
{
    const std::string intensity =
        rulers::isFunctionalUnit(ruler.dimension())
            ? std::to_string(ruler.dutyCycle())
            : std::to_string(ruler.workingSet());
    const std::string key =
        profile.name + "|" + ruler.name() + "@" + intensity;
    obs::Span span("lab.ruler", key);
    // Like a pair's solo references: measured under its own
    // retry/trial protocol, outside this one.
    const double solo = soloIpc(profile);
    const std::vector<double> vals =
        measureTrials(key, [&](const std::string &tkey) {
            fault::maybeThrow("lab.measure", tkey);
            workload::ProfileUopSource victim(profile, /*seed=*/1);
            const auto stressor = ruler.makeSource();
            const double co =
                machine_.runPairSmt(victim, *stressor, warmup_, measure_)
                    .front()
                    .ipc();
            return std::vector<double>{solo > 0.0 ? (solo - co) / solo
                                                  : 0.0};
        });
    return vals[0];
}

double
Lab::pairDegradation(const workload::WorkloadProfile &victim,
                     const workload::WorkloadProfile &aggressor,
                     CoLocationMode mode)
{
    return pairDegradations(victim, aggressor, mode).first;
}

std::pair<double, double>
Lab::pairDegradations(const workload::WorkloadProfile &a,
                      const workload::WorkloadProfile &b,
                      CoLocationMode mode)
{
    // Simulate with the name-ordered workload in the first placement
    // slot so the run — and thus the measurement — is the same
    // whichever direction is asked first, serially or in parallel.
    const bool ordered = a.name <= b.name;
    const workload::WorkloadProfile &first = ordered ? a : b;
    const workload::WorkloadProfile &second = ordered ? b : a;
    const std::string canonical = pairKey(first.name, second.name, mode);

    obs::Span span("lab.pair", canonical);
    // The solo references have their own retry/trial protocol; hoist
    // them so a pair-trial failure never double-counts a solo
    // failure.
    const double solo_first = soloIpc(first);
    const double solo_second = soloIpc(second);
    const std::vector<double> deg =
        measureTrials(canonical, [&](const std::string &tkey) {
            fault::maybeThrow("lab.measure", tkey);
            workload::ProfileUopSource sa(first, /*seed=*/1);
            workload::ProfileUopSource sb(second, /*seed=*/2);
            const auto counters =
                mode == CoLocationMode::kSmt
                    ? machine_.runPairSmt(sa, sb, warmup_, measure_)
                    : machine_.runPairCmp(sa, sb, warmup_, measure_);
            const double deg_first =
                solo_first > 0.0
                    ? (solo_first - counters[0].ipc()) / solo_first
                    : 0.0;
            const double deg_second =
                solo_second > 0.0
                    ? (solo_second - counters[1].ipc()) / solo_second
                    : 0.0;
            return std::vector<double>{deg_first, deg_second};
        });
    return ordered ? std::make_pair(deg[0], deg[1])
                   : std::make_pair(deg[1], deg[0]);
}

std::array<double, sim::kNumPorts>
Lab::pairPortUtilization(const workload::WorkloadProfile &a,
                         const workload::WorkloadProfile &b,
                         CoLocationMode mode)
{
    const std::string key = "ports|" + pairKey(a.name, b.name, mode);
    obs::Span span("lab.ports", key);
    const std::vector<double> vals =
        measureTrials(key, [&](const std::string &tkey) {
            fault::maybeThrow("lab.measure", tkey);
            workload::ProfileUopSource sa(a, /*seed=*/1);
            workload::ProfileUopSource sb(b, /*seed=*/2);
            const auto counters =
                mode == CoLocationMode::kSmt
                    ? machine_.runPairSmt(sa, sb, warmup_, measure_)
                    : machine_.runPairCmp(sa, sb, warmup_, measure_);
            std::vector<double> u(sim::kNumPorts);
            for (int p = 0; p < sim::kNumPorts; ++p) {
                u[p] = counters[0].portUtilization(p) +
                       counters[1].portUtilization(p);
            }
            return u;
        });

    std::array<double, sim::kNumPorts> utilization{};
    std::copy(vals.begin(), vals.end(), utilization.begin());
    return utilization;
}

double
Lab::multiInstanceDegradation(const workload::WorkloadProfile &latency,
                              int threads,
                              const workload::WorkloadProfile &batch,
                              int instances, CoLocationMode mode)
{
    const int cores = machine_.config().numCores;
    if (threads < 1 || instances < 1 || instances > threads)
        throw std::invalid_argument("bad thread/instance counts");
    if (mode == CoLocationMode::kSmt && threads > cores)
        throw std::invalid_argument("too many threads for SMT");
    if (mode == CoLocationMode::kCmp && threads + instances > cores)
        throw std::invalid_argument("too many placements for CMP");

    const std::string key = latency.name + "#" + batch.name + "#" +
                            modeName(mode) + "#" +
                            std::to_string(threads) + "x" +
                            std::to_string(instances);
    obs::Span span("lab.multi", key);
    const double solo = soloIpc(latency, threads);
    const std::vector<double> vals =
        measureTrials(key, [&](const std::string &tkey) {
            fault::maybeThrow("lab.measure", tkey);
            // Latency app on context 0 of cores 0..threads-1; batch
            // instances on the sibling contexts (SMT) or the idle
            // cores (CMP).
            std::vector<workload::ProfileUopSource> app_sources;
            std::vector<sim::Placement> placements =
                placeApp(latency, threads, app_sources);
            std::vector<workload::ProfileUopSource> batch_sources;
            batch_sources.reserve(static_cast<std::size_t>(instances));
            for (int k = 0; k < instances; ++k) {
                batch_sources.emplace_back(batch, /*seed=*/100 + k);
                placements.push_back(coRunnerPlacement(
                    mode, threads, k, &batch_sources.back()));
            }
            const double co_ipc = aggregateIpc(
                machine_.run(placements, warmup_, measure_), 0,
                static_cast<std::size_t>(threads));
            return std::vector<double>{
                solo > 0.0 ? (solo - co_ipc) / solo : 0.0};
        });
    return vals[0];
}

std::vector<double>
Lab::soloIpcAll(const std::vector<workload::WorkloadProfile> &profiles,
                int threads)
{
    std::vector<double> results(profiles.size());
    parallelFor(
        profiles.size(),
        [&](std::size_t i) {
            try {
                results[i] = soloIpc(profiles[i], threads);
            } catch (const fault::MeasurementError &) {
                // Retry budget spent (already logged): NaN marks the
                // hole instead of sinking the whole batch.
                results[i] = std::nan("");
            }
        },
        parallelism());
    return results;
}

std::vector<Characterization>
Lab::characterizeAll(const std::vector<workload::WorkloadProfile> &profiles,
                     CoLocationMode mode, int threads)
{
    // Warm the store with every raw run of the protocol as one batch
    // of equal-sized tasks: the Ruler baselines, then per profile its
    // solo run and one co-run per dimension. A whole characterization
    // per task would leave workers idle at the end of a short batch.
    const int workers = parallelism();
    const std::size_t dims = suite_.size();
    const std::size_t per_profile = 1 + dims;
    parallelFor(
        dims + profiles.size() * per_profile,
        [&](std::size_t t) {
            if (t < dims) {
                rulerBaseline(t, mode, threads);
                return;
            }
            const std::size_t i = (t - dims) / per_profile;
            const std::size_t k = (t - dims) % per_profile;
            if (k == 0)
                soloRun(profiles[i], threads);
            else
                rulerCoRun(profiles[i], k - 1, mode, threads);
        },
        workers);

    // The measurements proper, with their fault checks and retries,
    // then replay those runs (and re-simulate them with replay off).
    std::vector<Characterization> results(profiles.size());
    parallelFor(
        profiles.size(),
        [&](std::size_t i) {
            try {
                results[i] =
                    characterization(profiles[i], mode, threads);
            } catch (const fault::MeasurementError &) {
                results[i].valid = false;
            }
        },
        workers);
    return results;
}

std::vector<PmuProfile>
Lab::pmuProfileAll(const std::vector<workload::WorkloadProfile> &profiles)
{
    std::vector<PmuProfile> results(profiles.size());
    parallelFor(
        profiles.size(),
        [&](std::size_t i) {
            try {
                results[i] = pmuProfile(profiles[i]);
            } catch (const fault::MeasurementError &) {
                results[i].fill(std::nan(""));
            }
        },
        parallelism());
    return results;
}

std::vector<std::vector<double>>
Lab::measureAllPairs(const std::vector<workload::WorkloadProfile> &profiles,
                     CoLocationMode mode)
{
    const std::size_t n = profiles.size();

    // Solo IPCs enter every degradation; measure them first so pair
    // tasks don't serialize on the single-flight solo run of a hot
    // name. A solo failure here resurfaces from the pair that needs
    // it.
    soloIpcAll(profiles);

    // One task per unordered pair fills both directions from its one
    // name-ordered run; the diagonal stays 0.
    std::vector<std::pair<std::size_t, std::size_t>> tasks;
    tasks.reserve(n * (n - 1) / 2);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j)
            tasks.emplace_back(i, j);
    }
    std::vector<std::vector<double>> result(n, std::vector<double>(n));
    parallelFor(
        tasks.size(),
        [&](std::size_t t) {
            const auto [i, j] = tasks[t];
            try {
                std::tie(result[i][j], result[j][i]) =
                    pairDegradations(profiles[i], profiles[j], mode);
            } catch (const fault::MeasurementError &) {
                // Retry budget spent (already logged): NaN marks the
                // hole.
                result[i][j] = result[j][i] = std::nan("");
            }
        },
        parallelism());
    return result;
}

void
Lab::multiInstancePrefetch(
    const std::vector<workload::WorkloadProfile> &latency, int threads,
    const std::vector<workload::WorkloadProfile> &batch,
    int max_instances, CoLocationMode mode)
{
    // Every tuple of one latency app divides by the same solo IPC;
    // measure those first so the fanned-out tuples don't serialize on
    // the single-flight solo run. A failure resurfaces from the tuple
    // that needs it.
    soloIpcAll(latency, threads);

    struct Tuple {
        std::size_t l;
        std::size_t b;
        int k;
    };
    std::vector<Tuple> tuples;
    tuples.reserve(latency.size() * batch.size() *
                   static_cast<std::size_t>(max_instances));
    for (std::size_t l = 0; l < latency.size(); ++l) {
        for (std::size_t b = 0; b < batch.size(); ++b) {
            for (int k = 1; k <= max_instances; ++k)
                tuples.push_back(Tuple{l, b, k});
        }
    }
    parallelFor(
        tuples.size(),
        [&](std::size_t t) {
            try {
                multiInstanceDegradation(latency[tuples[t].l], threads,
                                         batch[tuples[t].b],
                                         tuples[t].k, mode);
            } catch (const fault::MeasurementError &) {
                // Retry budget spent (already logged); the caller's
                // assembly loop sees the deterministic re-failure.
            }
        },
        parallelism());
}

double
Lab::scaleToInstances(double pair_prediction, int instances, int threads)
{
    if (threads <= 0)
        throw std::invalid_argument("threads must be positive");
    return pair_prediction * static_cast<double>(instances) /
           static_cast<double>(threads);
}

} // namespace smite::core
