/**
 * @file
 * The experiment lab: the measurement front end over the machine
 * model and the only code in core that runs it. It provides every
 * measurement the paper's evaluation needs — solo IPCs, PMU profiles,
 * Ruler characterizations (Equations 1-2), single-Ruler points of the
 * Section III-B1 sensitivity curves, pair and many-instance
 * co-location degradations. The predictors (core/predictor.h) train
 * on corpora measured through it.
 *
 * The Lab keeps no memo of its own: every accessor measures through
 * sim::Machine::run, and the run-level ReplayStore (sim/replay.h)
 * serves every repeated run, so harnesses that revisit the same
 * co-locations (e.g. a figure sweep) pay for each simulation once —
 * across processes too, for a Lab built with a cache path
 * (sim::RunLog). Runs are keyed on stream identities, which digest
 * the whole profile (workload::profileDigest), so a profile edited
 * under its old name is measured afresh.
 *
 * The Lab is safe to call from many threads at once: the store is
 * single-flight (two threads never simulate the same run twice) and
 * the underlying sim::Machine builds all microarchitectural state
 * fresh inside each const run() call, so concurrent runs never alias.
 * The characterizeAll / measureAllPairs / soloIpcAll / pmuProfileAll
 * batch APIs fan the independent simulations of the paper's protocol
 * out with parallelFor (core/parallel.h; SMITE_THREADS or
 * setParallelism() controls the width) and assemble results in input
 * order, byte-identical to the serial loop.
 *
 * The Lab is also the pipeline's resilience boundary (see
 * docs/ROBUSTNESS.md). Real-machine measurement campaigns lose runs;
 * the fault layer (src/fault) simulates that, and the Lab absorbs it:
 * every measurement is retried with backoff on a transient
 * MeasurementError (SMITE_LAB_RETRIES attempts, default 3), can run
 * as a median-of-N multi-trial protocol with MAD outlier rejection
 * (SMITE_LAB_TRIALS, default 1), and the batch APIs degrade
 * gracefully — a measurement that fails past the retry budget is
 * marked invalid (its samples then leave training corpora) and
 * logged to the IncidentLog instead of aborting the run. Each attempt
 * runs inside a fault::MeasurementScope named by its key, so its
 * `lab.measure` decision and jitter draws are a pure function of the
 * measurement: trials differ, a repeated ask does not, and the pool
 * width changes nothing. With no faults armed none of this changes a
 * single output byte.
 */

#ifndef SMITE_CORE_EXPERIMENT_H
#define SMITE_CORE_EXPERIMENT_H

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/characterize.h"
#include "fault/fault.h"
#include "sim/machine.h"
#include "workload/profile.h"

namespace smite::core {

/**
 * Measurement front end for one machine configuration.
 */
class Lab
{
  public:
    /**
     * @param config machine to measure on
     * @param warmup cycles before counters accumulate
     * @param measure measurement interval in cycles
     */
    explicit Lab(const sim::MachineConfig &config,
                 sim::Cycle warmup = sim::kDefaultWarmupCycles,
                 sim::Cycle measure = sim::kDefaultMeasureCycles);

    /**
     * Also replay the runs recorded in the run log at @p cache_path
     * (sim::RunLog) and append the ones this Lab simulates to it.
     */
    Lab(const sim::MachineConfig &config, const std::string &cache_path,
        sim::Cycle warmup = sim::kDefaultWarmupCycles,
        sim::Cycle measure = sim::kDefaultMeasureCycles);

    /** The machine under test. */
    const sim::Machine &machine() const { return machine_; }

    /**
     * Worker threads for the batch APIs: 0 (default) means the
     * SMITE_THREADS environment variable, else hardware concurrency.
     * 1 selects the serial path (no worker threads).
     */
    void setParallelism(int threads) { parallelism_ = threads; }

    /** The resolved batch-API worker count. */
    int parallelism() const;

    /**
     * Attempts per measurement before a transient MeasurementError
     * is surfaced: 0 (default) means the SMITE_LAB_RETRIES
     * environment variable, else 3. 1 disables retrying.
     */
    void setMaxAttempts(int attempts) { maxAttempts_ = attempts; }

    /** The resolved per-measurement attempt budget (at least 1). */
    int maxAttempts() const;

    /**
     * Independent trials per scalar measurement, aggregated with an
     * MAD-robust median: 0 (default) means the SMITE_LAB_TRIALS
     * environment variable, else 1 (single-shot, byte-identical to
     * the historical protocol).
     */
    void setTrials(int trials) { trials_ = trials; }

    /** The resolved trial count (at least 1). */
    int trials() const;

    /** Solo IPC (aggregate over @p threads instances, one per core). */
    double soloIpc(const workload::WorkloadProfile &profile,
                   int threads = 1);

    /** Solo counter block of a single-threaded run. */
    sim::CounterBlock soloCounters(const workload::WorkloadProfile &profile);

    /** The 11 PMU rates of a solo run (input to the PMU model). */
    PmuProfile pmuProfile(const workload::WorkloadProfile &profile);

    /**
     * Ruler characterization (Equations 1-2): @p threads instances of
     * the application, one per core, each next to one instance of
     * every Ruler in turn — on the sibling context (SMT) or a
     * neighbouring core (CMP). The paper uses 6 threads for SMT and 3
     * for CMP CloudSuite runs.
     */
    Characterization
    characterization(const workload::WorkloadProfile &profile,
                     CoLocationMode mode, int threads = 1);

    /**
     * Degradation of one thread of @p profile (context 0 of core 0)
     * next to one instance of @p ruler on its SMT sibling, relative
     * to soloIpc(profile): one point of a sensitivity curve
     * (core/sensitivity_curve.h).
     */
    double rulerDegradation(const workload::WorkloadProfile &profile,
                            const rulers::Ruler &ruler);

    /**
     * Measured degradation of @p victim co-located with
     * @p aggressor (Equation 7). Both directions of a pair come from
     * one run, simulated with the name-ordered workload in the first
     * placement slot, so the measurement is independent of which
     * direction is asked first.
     */
    double pairDegradation(const workload::WorkloadProfile &victim,
                           const workload::WorkloadProfile &aggressor,
                           CoLocationMode mode);

    /**
     * Aggregated per-port utilization (sum over both co-located
     * contexts) of a co-location pair — the quantity of the paper's
     * Figures 3 and 5.
     */
    std::array<double, sim::kNumPorts>
    pairPortUtilization(const workload::WorkloadProfile &a,
                        const workload::WorkloadProfile &b,
                        CoLocationMode mode);

    /**
     * Measured aggregate degradation of a @p threads -thread
     * latency-sensitive application co-located with @p instances
     * instances of @p batch (the paper's CloudSuite protocol:
     * 6 threads + 1..6 batch instances for SMT, 3 + 1..3 for CMP).
     */
    double
    multiInstanceDegradation(const workload::WorkloadProfile &latency,
                             int threads,
                             const workload::WorkloadProfile &batch,
                             int instances, CoLocationMode mode);

    /**
     * Batch solo IPCs, fanned out across the pool; result i belongs
     * to profiles[i].
     */
    std::vector<double>
    soloIpcAll(const std::vector<workload::WorkloadProfile> &profiles,
               int threads = 1);

    /**
     * Batch characterization: warms the store with every raw run —
     * the per-dimension Ruler baselines, each profile's solo run and
     * its co-run with each Ruler — as one parallel batch, then
     * characterizes every profile in parallel from those runs.
     * Result i belongs to profiles[i]; values are byte-identical to
     * calling characterization() serially.
     */
    std::vector<Characterization>
    characterizeAll(const std::vector<workload::WorkloadProfile> &profiles,
                    CoLocationMode mode, int threads = 1);

    /** Batch PMU profiles; result i belongs to profiles[i]. */
    std::vector<PmuProfile>
    pmuProfileAll(const std::vector<workload::WorkloadProfile> &profiles);

    /**
     * Measure every ordered co-location pair among @p profiles in
     * parallel (one simulation per unordered pair covers both
     * directions). result[i][j] is the degradation of profiles[i]
     * co-located with profiles[j]; the diagonal is 0, and a pair that
     * fails past its retry budget is NaN both ways.
     */
    std::vector<std::vector<double>>
    measureAllPairs(const std::vector<workload::WorkloadProfile> &profiles,
                    CoLocationMode mode);

    /**
     * Warm the ReplayStore with the runs of every
     * (latency app, batch app, 1..max_instances) tuple — the
     * measurement grid of the Figures 14-17 scale-out sweeps — in
     * parallel across the pool. Subsequent multiInstanceDegradation()
     * calls for these tuples replay, so a serial assembly loop after
     * this produces values byte-identical to the all-serial protocol
     * without simulating. A tuple that fails past its retry budget is
     * skipped here (already logged) and re-fails deterministically
     * when asked for directly.
     */
    void multiInstancePrefetch(
        const std::vector<workload::WorkloadProfile> &latency,
        int threads,
        const std::vector<workload::WorkloadProfile> &batch,
        int max_instances, CoLocationMode mode);

    /**
     * Predicted degradation for the many-instance protocol: the
     * pairwise model prediction scaled by the fraction of app
     * threads that actually have a co-runner.
     */
    static double scaleToInstances(double pair_prediction, int instances,
                                   int threads);

  private:
    /**
     * The raw runs of the protocol, outside the retry/trial wrappers
     * (so one characterization makes one `lab.measure` check):
     * soloRun() is the aggregate IPC of @p threads instances of the
     * application alone, rulerBaseline() that of @p threads instances
     * of Ruler @p d alone in their co-location slots — independent of
     * the application, so after its first run every characterization
     * replays it — rulerCoRun() returns the aggregate IPCs {app,
     * Ruler} of the application next to Ruler @p d, and
     * characterizeRun() applies Equations 1 and 2.
     */
    double soloRun(const workload::WorkloadProfile &profile,
                   int threads) const;
    double rulerBaseline(std::size_t d, CoLocationMode mode,
                         int threads) const;
    std::pair<double, double>
    rulerCoRun(const workload::WorkloadProfile &profile, std::size_t d,
               CoLocationMode mode, int threads) const;
    Characterization
    characterizeRun(const workload::WorkloadProfile &profile,
                    CoLocationMode mode, int threads) const;

    std::string pairKey(const std::string &a, const std::string &b,
                        CoLocationMode mode) const;

    /**
     * Degradations of @p a and of @p b, in that order, from their one
     * name-ordered co-run (see pairDegradation()).
     */
    std::pair<double, double>
    pairDegradations(const workload::WorkloadProfile &a,
                     const workload::WorkloadProfile &b,
                     CoLocationMode mode);

    /**
     * Handle one failed measurement attempt: count a retry and back
     * off, or — once the attempt budget is spent — count a failure,
     * log an incident and rethrow the active MeasurementError. Must
     * be called from inside a catch handler.
     */
    void onMeasurementFailure(const std::string &key, const char *what,
                              int attempt, int max_attempts);

    /**
     * Run @p fn until it succeeds or the attempt budget is spent.
     * @p fn receives an attempt-qualified key ("<key>/aN"), and runs
     * inside a fault::MeasurementScope of that key, so keyed fault
     * decisions and jitter draws differ between attempts — a
     * transient fault stays transient.
     */
    template <typename Fn>
    auto
    withRetry(const std::string &key, Fn &&fn)
    {
        const int attempts = maxAttempts();
        for (int attempt = 1;; ++attempt) {
            try {
                const std::string attempt_key =
                    key + "/a" + std::to_string(attempt);
                const fault::MeasurementScope scope(attempt_key);
                return fn(attempt_key);
            } catch (const fault::MeasurementError &err) {
                onMeasurementFailure(key, err.what(), attempt,
                                     attempts);
            }
        }
    }

    /**
     * The multi-trial measurement protocol: run @p fn trials() times
     * (each trial retried independently, keys "<key>/tT/aN") and
     * reduce component-wise with the MAD-robust median. One trial
     * short-circuits to plain retry, preserving byte-identical
     * single-shot behaviour.
     */
    std::vector<double> measureTrials(
        const std::string &key,
        const std::function<std::vector<double>(const std::string &)>
            &fn);

    sim::Machine machine_;
    std::vector<rulers::Ruler> suite_;  ///< one Ruler per dimension
    sim::Cycle warmup_;
    sim::Cycle measure_;
    int parallelism_ = 0;
    int maxAttempts_ = 0;
    int trials_ = 0;
};

} // namespace smite::core

#endif // SMITE_CORE_EXPERIMENT_H
