/**
 * @file
 * Predictor-zoo shoot-out (beyond the paper): every
 * core::PredictorKind — the paper's SMiTe Ruler regression, its
 * PMU-counter baseline, the MISE-style memory-rate estimator and the
 * Alves-Drummond saturating interference model — trained on the
 * identical measured-pair corpus and scored head-to-head on the same
 * held-out pairs, on both Table 1 machines.
 *
 * Three axes per predictor:
 *   accuracy   mean absolute error of predicted vs. measured
 *              degradation over the held-out ordered pairs
 *              (the Figures 10/11 protocol: train even-numbered
 *              SPEC, test odd-numbered)
 *   cost       machine runs needed to signature a *new* workload
 *              (Ruler-based predictors pay one co-run per dimension;
 *              counter-based ones a single solo run)
 *   latency    CPU time per predictDegradation() call, recorded in
 *              the report's `timings` block only — wall-clock never
 *              lands in `results`, so the committed baseline diff
 *              stays machine-independent
 *
 * The committed BENCH_pred.json at the repository root is the
 * baseline: `scripts/tier1.sh` re-runs this harness and diffs the
 * fresh report against it with `report_diff` under the gate declared
 * in main() (every result and counter exact, except the counters
 * that depend on the pool's width or timing), and byte-compares
 * stdout across SMITE_THREADS settings (stdout carries results and
 * cost only, so it is deterministic by construction).
 *
 *   bench_predictor_zoo [output.json]   (default: BENCH_pred.json)
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/smite.h"
#include "obs/metrics.h"
#include "obs/report.h"

using namespace smite;

namespace {

/** CPU time of this process in seconds (immune to co-runner load). */
double
cpuSeconds()
{
#if defined(__unix__) || defined(__APPLE__)
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
#else
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
#endif
}

/** Samples for the latency kernel; the median is recorded. */
constexpr int kRepeats = 5;

/**
 * CPU time one latency sample spans at least. One sweep over the
 * held-out pairs takes about 20 us, too short to time on its own.
 */
constexpr double kMinSampleSeconds = 2e-3;

/** Defeat dead-code elimination without a compiler intrinsic. */
volatile double g_sink;

/** Set @p counter back to @p value (unsigned adds wrap modulo 2^64). */
void
rewind(obs::Counter &counter, std::uint64_t value)
{
    counter.add(value - counter.value());
}

/** One held-out pair with its measured-oracle degradation. */
struct OraclePair {
    const core::WorkloadSignature *victim;
    const core::WorkloadSignature *aggressor;
    double measured;
};

/** Run the shoot-out on one machine; returns rows for the summary. */
void
shootOut(obs::RunReport &report, const char *tag,
         const sim::MachineConfig &config)
{
    std::printf("\n--- %s ---\n", config.microarchitecture.c_str());
    core::Lab lab = bench::makeLab(config);
    const auto mode = core::CoLocationMode::kSmt;
    const auto train_set = workload::spec2006::evenNumbered();
    const auto test_set = workload::spec2006::oddNumbered();

    // No thread count in this banner: tier-1 byte-compares this
    // harness's stdout across SMITE_THREADS settings.
    std::printf("training the zoo on %zu benchmarks, testing on all "
                "ordered pairs of %zu held-out ones\n",
                train_set.size(), test_set.size());
    const core::PredictorZoo zoo =
        core::trainPredictorZoo(lab, train_set, mode);

    // Held-out signatures + measured oracle, fanned out through the
    // batch APIs so the serial loops below replay the store. A pair
    // whose measurement failed past the retry budget is skipped for
    // every predictor alike.
    const std::vector<core::WorkloadSignature> test_sigs =
        core::signaturesOf(lab, test_set, mode);
    lab.measureAllPairs(test_set, mode);
    std::vector<OraclePair> oracle;
    int skipped = 0;
    for (std::size_t v = 0; v < test_set.size(); ++v) {
        for (std::size_t a = 0; a < test_set.size(); ++a) {
            if (v == a)
                continue;
            if (!test_sigs[v].valid || !test_sigs[a].valid) {
                ++skipped;
                continue;
            }
            try {
                oracle.push_back(
                    {&test_sigs[v], &test_sigs[a],
                     lab.pairDegradation(test_set[v], test_set[a],
                                         mode)});
            } catch (const fault::MeasurementError &err) {
                ++skipped;
                obs::IncidentLog::global().record(
                    std::string("predictor zoo: skipped pair ") +
                    test_set[v].name + "|" + test_set[a].name + ": " +
                    err.what());
            }
        }
    }
    if (skipped > 0)
        std::printf("(%d held-out pair%s skipped after measurement "
                    "failures)\n",
                    skipped, skipped == 1 ? "" : "s");

    std::printf("%-16s %14s %16s\n", "predictor", "MAE", "sig runs");
    for (const auto &predictor : zoo.predictors) {
        double abs_err = 0;
        for (const OraclePair &p : oracle) {
            abs_err += std::abs(
                predictor->predictDegradation(*p.victim, *p.aggressor) -
                p.measured);
        }
        const double mae =
            oracle.empty()
                ? 0.0
                : abs_err / static_cast<double>(oracle.size());
        const std::string name(predictor->name());
        report.addResult(std::string(tag) + "_" + name + "_mae",
                         obs::json::Value(mae));
        report.addResult(std::string(tag) + "_" + name +
                             "_signature_runs",
                         obs::json::Value(predictor->signatureRuns()));
        std::printf("%-16s %13.2f%% %16d\n", name.c_str(), 100 * mae,
                    predictor->signatureRuns());

        // Prediction latency: timings only (never diffed, see the
        // file header). One untimed warmup sweep over every held-out
        // pair, then the median of kRepeats samples, each repeating
        // the sweep until it spans kMinSampleSeconds of CPU. How many
        // repeats that takes depends on the host, so they are taken
        // back out of the predictor counters, which the gate compares
        // exactly: those count one sweep per sample.
        if (!oracle.empty()) {
            obs::Registry &registry = obs::Registry::global();
            obs::Counter &predictions =
                registry.counter("predictor.predictions");
            obs::Counter &clamped = registry.counter("predictor.clamped");
            const auto sweep = [&] {
                double sum = 0;
                for (const OraclePair &p : oracle)
                    sum += predictor->predictDegradation(*p.victim,
                                                         *p.aggressor);
                g_sink = sum;
            };
            sweep();
            std::vector<double> times;
            for (int r = 0; r < kRepeats; ++r) {
                const double t0 = cpuSeconds();
                sweep();
                const std::uint64_t counted[] = {predictions.value(),
                                                 clamped.value()};
                int sweeps = 1;
                double spent = cpuSeconds() - t0;
                for (int batch = 1; spent < kMinSampleSeconds;
                     batch *= 2) {
                    for (int k = 0; k < batch; ++k)
                        sweep();
                    sweeps += batch;
                    spent = cpuSeconds() - t0;
                }
                rewind(predictions, counted[0]);
                rewind(clamped, counted[1]);
                times.push_back(spent / sweeps);
            }
            std::sort(times.begin(), times.end());
            const double per_call_ns =
                times[kRepeats / 2] /
                static_cast<double>(oracle.size()) * 1e9;
            report.addTiming(std::string(tag) + "_" + name +
                                 "_predict_ns",
                             per_call_ns);
        }
    }
    std::printf("measured oracle: %zu held-out pairs\n",
                oracle.size());
    report.addResult(std::string(tag) + "_oracle_pairs",
                     obs::json::Value(
                         static_cast<int>(oracle.size())));
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_pred.json";
    bench::ReportScope scope("bench_predictor_zoo");
    obs::RunReport &report = scope.report();
    // pool.* counters follow the pool's width, and whether a repeated
    // replay ask counts as a hit or a wait depends on thread timing.
    // machine.runs = hits + waits + misses + bypassed, so exact runs,
    // misses and bypassed still pin hits + waits. Histograms are not
    // compared: pooled summation order moves the low bits of
    // machine.ipc's sum.
    report.addGate("metrics.counters.pool.*", obs::json::Value("ignore"));
    report.addGate("metrics.counters.machine.replay.hits",
                   obs::json::Value("ignore"));
    report.addGate("metrics.counters.machine.replay.waits",
                   obs::json::Value("ignore"));
    report.addGate("results.*", obs::json::Value(0));
    report.addGate("metrics.counters.*", obs::json::Value(0));
    bench::banner("Predictor zoo (beyond the paper)",
                  "SMiTe vs PMU vs MISE-style vs Alves-Drummond "
                  "predictors, one corpus, head to head");

    shootOut(report, "snb", sim::MachineConfig::sandyBridgeEN());
    shootOut(report, "ivb", sim::MachineConfig::ivyBridge());

    bench::paperReference(
        "beyond the paper: Subramanian et al. (MISE) and Alves & "
        "Drummond ground the two non-paper predictors; the protocol "
        "is Figure 10's train-even/test-odd split");

    // Fold the scope's own artifacts before writing the committed
    // baseline itself, which is unconditional.
    scope.finish();
    if (!scope.report().writeTo(out_path))
        return 1;
    std::printf("\nreport written to %s\n", out_path.c_str());
    return 0;
}
