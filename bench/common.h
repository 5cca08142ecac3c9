/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses.
 *
 * Each bench binary regenerates one table or figure of the paper and
 * prints our measured series next to the values the paper reports.
 * Simulator runs are shared between binaries through the run log
 * (sim::kRunLogFile in the working directory, one file for every
 * machine and interval; delete it to re-measure).
 */

#ifndef SMITE_BENCH_COMMON_H
#define SMITE_BENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/parallel.h"
#include "core/smite.h"
#include "obs/env.h"
#include "obs/obs.h"

namespace smite::bench {

/**
 * Simulation intervals for the harnesses: the paper-length defaults,
 * or the SMITE_BENCH_WARMUP / SMITE_BENCH_MEASURE environment
 * overrides (cycles) for quick smoke runs.
 */
inline sim::Cycle
benchWarmupCycles()
{
    return obs::envPositive("SMITE_BENCH_WARMUP", sim::kDefaultWarmupCycles);
}

/** @copydoc benchWarmupCycles */
inline sim::Cycle
benchMeasureCycles()
{
    return obs::envPositive("SMITE_BENCH_MEASURE",
                            sim::kDefaultMeasureCycles);
}

/** Build a Lab over the shared run log at the harness intervals. */
inline core::Lab
makeLab(const sim::MachineConfig &config)
{
    return core::Lab(config, sim::kRunLogFile, benchWarmupCycles(),
                     benchMeasureCycles());
}

/**
 * Per-harness observability scope: declare one at the top of main().
 *
 * Wraps the whole run in a `bench.run` trace span and, at scope exit,
 * emits the structured artifacts next to the harness's stdout —
 * `<name>.report.json` (schema `smite-run-report/1`, carrying config,
 * phase timings, recorded results and a metrics-registry snapshot)
 * whenever SMITE_METRICS or SMITE_TRACE is set, plus
 * `<name>.trace.json` (Chrome trace_event, open in Perfetto) when
 * SMITE_TRACE is set. With both variables unset nothing is written —
 * harness behaviour and output stay byte-identical.
 */
class ReportScope
{
  public:
    /** @param name harness identifier, conventionally the binary name. */
    explicit ReportScope(const char *name)
        : report_(name), start_(std::chrono::steady_clock::now()),
          start_us_(obs::TraceSession::global().nowMicros())
    {
        instance_ = this;
        report_.setConfig("threads",
                          obs::json::Value(core::defaultThreadCount()));
        report_.setConfig("warmup_cycles",
                          obs::json::Value(benchWarmupCycles()));
        report_.setConfig("measure_cycles",
                          obs::json::Value(benchMeasureCycles()));
    }

    ~ReportScope() { finish(); }

    ReportScope(const ReportScope &) = delete;
    ReportScope &operator=(const ReportScope &) = delete;

    /** The active scope, or nullptr outside an instrumented harness. */
    static ReportScope *instance() { return instance_; }

    /** The report under construction. */
    obs::RunReport &report() { return report_; }

    /** Record a result on the active scope, if any (shared helpers). */
    static void
    recordResult(const std::string &key, obs::json::Value value)
    {
        if (instance_ != nullptr)
            instance_->report_.addResult(key, std::move(value));
    }

    /** Emit the artifacts now (idempotent; the destructor calls it). */
    void
    finish()
    {
        if (finished_)
            return;
        finished_ = true;
        instance_ = nullptr;
        const double total_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        report_.addTiming("total_s", total_s);
        // A run that absorbed measurement failures advertises itself
        // as partial, with the incident list attached: a degraded
        // chaos run must never masquerade as a clean one.
        if (obs::IncidentLog::global().count() > 0)
            report_.markPartial(obs::IncidentLog::global().snapshot());
        if (obs::traceEnabled()) {
            // The whole-run span is recorded here rather than by a
            // Span destructor, which would fire only after the trace
            // file had already been written.
            obs::TraceSession &session = obs::TraceSession::global();
            session.record("bench.run", start_us_,
                           session.nowMicros() - start_us_,
                           report_.name());
            const std::string trace_path =
                report_.name() + ".trace.json";
            if (obs::TraceSession::global().writeTo(trace_path))
                std::fprintf(stderr, "smite: trace written to %s\n",
                             trace_path.c_str());
        }
        if (obs::metricsEnabled() || obs::traceEnabled()) {
            const std::string report_path =
                report_.name() + ".report.json";
            if (report_.writeTo(report_path))
                std::fprintf(stderr, "smite: report written to %s\n",
                             report_path.c_str());
        }
    }

  private:
    inline static ReportScope *instance_ = nullptr;

    obs::RunReport report_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t start_us_;
    bool finished_ = false;
};

/** Print the standard bench banner. */
inline void
banner(const char *experiment, const char *what)
{
    std::printf("================================================="
                "=============\n");
    std::printf("SMiTe reproduction | %s\n", experiment);
    std::printf("%s\n", what);
    std::printf("================================================="
                "=============\n");
}

/** Print a labelled paper-reference line. */
inline void
paperReference(const char *text)
{
    std::printf("paper reference: %s\n", text);
}

/**
 * The Figures 10/11 protocol: train SMiTe and the PMU baseline on
 * one corpus of the even-numbered SPEC benchmarks, evaluate on all
 * ordered pairs of the odd-numbered ones, and print per-benchmark
 * measured degradation plus both models' average absolute prediction
 * error.
 */
inline void
runSpecPredictionExperiment(core::Lab &lab, core::CoLocationMode mode,
                            double paper_smite, double paper_pmu)
{
    const auto train = workload::spec2006::evenNumbered();
    const auto test = workload::spec2006::oddNumbered();

    if (ReportScope *scope = ReportScope::instance()) {
        scope->report().setConfig(
            "machine",
            obs::json::Value(lab.machine().config().microarchitecture));
    }

    std::printf("training SMiTe + PMU models on the %zu even-numbered "
                "benchmarks (%s co-location, %d threads)...\n",
                train.size(), core::modeName(mode), lab.parallelism());
    const core::TrainingCorpus corpus =
        core::trainingCorpus(lab, train, mode);
    const core::Predictor smite =
        core::Predictor::train(core::PredictorKind::kSmite, corpus.samples);
    const core::Predictor pmu =
        core::Predictor::train(core::PredictorKind::kPmu, corpus.samples);

    // Fan the test-set measurements out before the reporting loop so
    // the serial printing below runs entirely on replay-store hits.
    const std::vector<core::WorkloadSignature> sigs =
        core::signaturesOf(lab, test, mode);
    const std::vector<std::vector<double>> pairs =
        lab.measureAllPairs(test, mode);

    std::printf("\nSMiTe coefficients c_i:");
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        std::printf(" %s=%.3f",
                    rulers::dimensionName(
                        rulers::kAllDimensions[d]).data(),
                    smite.coefficients()[d]);
    }
    std::printf("  c0=%.4f\n\n", smite.constantTerm());

    std::printf("%-16s %12s %12s %12s\n", "benchmark",
                "measured deg", "SMiTe err", "PMU err");
    obs::json::Value per_benchmark = obs::json::Value::array();
    double total_measured = 0, total_smite = 0, total_pmu = 0;
    int skipped_pairs = 0;
    for (std::size_t v = 0; v < test.size(); ++v) {
        const workload::WorkloadProfile &victim = test[v];
        double measured = 0, smite_err = 0, pmu_err = 0;
        int n = 0;
        for (std::size_t a = 0; a < test.size(); ++a) {
            if (v == a)
                continue;
            // A pair resting on a measurement that failed past the
            // Lab's retry budget is skipped (and the run reported
            // partial) rather than aborting the whole evaluation.
            const double actual = pairs[v][a];
            if (std::isnan(actual) || !sigs[v].valid || !sigs[a].valid) {
                ++skipped_pairs;
                obs::IncidentLog::global().record(
                    "evaluation: skipped pair " + victim.name + "|" +
                    test[a].name + " after a measurement failure");
                continue;
            }
            measured += actual;
            smite_err +=
                std::abs(smite.predictDegradation(sigs[v], sigs[a]) -
                         actual);
            pmu_err +=
                std::abs(pmu.predictDegradation(sigs[v], sigs[a]) -
                         actual);
            ++n;
        }
        if (n == 0) {
            std::printf("%-16s %12s %12s %12s\n", victim.name.c_str(),
                        "(no data)", "-", "-");
            continue;
        }
        measured /= n;
        smite_err /= n;
        pmu_err /= n;
        std::printf("%-16s %11.2f%% %11.2f%% %11.2f%%\n",
                    victim.name.c_str(), 100 * measured,
                    100 * smite_err, 100 * pmu_err);
        obs::json::Value row = obs::json::Value::object();
        row.set("benchmark", obs::json::Value(victim.name));
        row.set("measured_degradation", obs::json::Value(measured));
        row.set("smite_error", obs::json::Value(smite_err));
        row.set("pmu_error", obs::json::Value(pmu_err));
        per_benchmark.push(std::move(row));
        total_measured += measured;
        total_smite += smite_err;
        total_pmu += pmu_err;
    }
    if (skipped_pairs > 0) {
        std::printf("(%d test pair%s skipped after measurement "
                    "failures)\n",
                    skipped_pairs, skipped_pairs == 1 ? "" : "s");
        ReportScope::recordResult("skipped_pairs",
                                  obs::json::Value(skipped_pairs));
    }
    const double n = static_cast<double>(test.size());
    std::printf("%-16s %11.2f%% %11.2f%% %11.2f%%\n", "AVERAGE",
                100 * total_measured / n, 100 * total_smite / n,
                100 * total_pmu / n);
    std::printf("\npaper: SMiTe %.2f%% vs PMU %.2f%% average error\n",
                paper_smite, paper_pmu);

    ReportScope::recordResult("mode", obs::json::Value(
                                          core::modeName(mode)));
    ReportScope::recordResult("per_benchmark",
                              std::move(per_benchmark));
    ReportScope::recordResult("avg_measured_degradation",
                              obs::json::Value(total_measured / n));
    ReportScope::recordResult("smite_avg_error",
                              obs::json::Value(total_smite / n));
    ReportScope::recordResult("pmu_avg_error",
                              obs::json::Value(total_pmu / n));
    ReportScope::recordResult("paper_smite_avg_error_pct",
                              obs::json::Value(paper_smite));
    ReportScope::recordResult("paper_pmu_avg_error_pct",
                              obs::json::Value(paper_pmu));
}

} // namespace smite::bench

#endif // SMITE_BENCH_COMMON_H
