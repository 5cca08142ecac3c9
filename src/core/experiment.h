/**
 * @file
 * The experiment lab: a memoizing front end over the machine model
 * that provides every measurement the paper's evaluation needs —
 * solo IPCs, PMU profiles, Ruler characterizations, pair and
 * many-instance co-location degradations — plus the training
 * protocols for the SMiTe and PMU models.
 *
 * Measurements are cached by (workload, mode, shape), so harnesses
 * that revisit the same co-locations (e.g. a figure sweep) pay for
 * each simulation once.
 *
 * The Lab is safe to call from many threads at once: every cache is
 * a single-flight MemoCache (two threads never simulate the same key
 * twice) and the underlying sim::Machine builds all microarchitectural
 * state fresh inside each const run() call, so concurrent runs never
 * alias. The characterizeAll / measureAllPairs / soloIpcAll /
 * pmuProfileAll batch APIs fan the independent simulations of the
 * paper's protocol out across a thread pool (SMITE_THREADS or
 * setParallelism() controls the width) and assemble results in input
 * order, byte-identical to the serial loop.
 *
 * The Lab is also the pipeline's resilience boundary (see
 * docs/ROBUSTNESS.md). Real-machine measurement campaigns lose runs;
 * the fault layer (src/fault) simulates that, and the Lab absorbs it:
 * every measurement is retried with backoff on a transient
 * MeasurementError (SMITE_LAB_RETRIES attempts, default 3), can run
 * as a median-of-N multi-trial protocol with MAD outlier rejection
 * (SMITE_LAB_TRIALS, default 1), and the batch/training APIs degrade
 * gracefully — a sample that fails past the retry budget is marked
 * invalid or dropped from the fit and logged to the IncidentLog
 * instead of aborting the run. With no faults armed none of this
 * changes a single output byte.
 */

#ifndef SMITE_CORE_EXPERIMENT_H
#define SMITE_CORE_EXPERIMENT_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/characterize.h"
#include "core/disk_cache.h"
#include "core/memo_cache.h"
#include "core/pmu_model.h"
#include "core/smite_model.h"
#include "fault/fault.h"
#include "sim/machine.h"
#include "workload/profile.h"

namespace smite::core {

/**
 * Memoizing measurement front end for one machine configuration.
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

    /** Convenience: construct with the disk cache already enabled. */
    Lab(const sim::MachineConfig &config, const std::string &cache_path,
        sim::Cycle warmup = sim::kDefaultWarmupCycles,
        sim::Cycle measure = sim::kDefaultMeasureCycles);

    // The characterizer holds a reference to machine_ and the caches
    // hold synchronization primitives; the Lab stays where it was
    // built.
    Lab(const Lab &) = delete;
    Lab &operator=(const Lab &) = delete;

    /** The machine under test. */
    const sim::Machine &machine() const { return machine_; }

    /** The default Ruler suite for this machine. */
    const std::vector<rulers::Ruler> &rulerSuite() const { return suite_; }

    /** The characterization driver. */
    const Characterizer &characterizer() const { return characterizer_; }

    /**
     * Worker threads for the batch APIs: 0 (default) means the
     * SMITE_THREADS environment variable, else hardware concurrency.
     * 1 selects the serial path (no pool).
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
    const sim::CounterBlock &
    soloCounters(const workload::WorkloadProfile &profile);

    /** The 11 PMU rates of a solo run (input to the PMU model). */
    PmuProfile pmuProfile(const workload::WorkloadProfile &profile);

    /** Ruler characterization (cached). */
    const Characterization &
    characterization(const workload::WorkloadProfile &profile,
                     CoLocationMode mode, int threads = 1);

    /**
     * Measured degradation of @p victim co-located with
     * @p aggressor (Equation 7). Both directions of a pair are
     * measured in one run (simulated with the name-ordered workload
     * in the first placement slot, so the measurement is independent
     * of which direction is asked first) and cached.
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
     * Batch characterization: warms the per-dimension Ruler baselines
     * in parallel, then characterizes every profile in parallel.
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
     * co-located with profiles[j]; the diagonal is 0.
     */
    std::vector<std::vector<double>>
    measureAllPairs(const std::vector<workload::WorkloadProfile> &profiles,
                    CoLocationMode mode);

    /**
     * Warm the multi-instance degradation cache for every
     * (latency app, batch app, 1..max_instances) tuple — the
     * measurement grid of the Figures 14-17 scale-out sweeps — in
     * parallel across the pool. Subsequent multiInstanceDegradation()
     * calls for these tuples are cache hits, so a serial assembly
     * loop after this produces values byte-identical to the
     * all-serial protocol. A tuple that fails past its retry budget
     * is skipped here (already logged) and re-fails deterministically
     * when asked for directly.
     */
    void multiInstancePrefetch(
        const std::vector<workload::WorkloadProfile> &latency,
        int threads,
        const std::vector<workload::WorkloadProfile> &batch,
        int max_instances, CoLocationMode mode);

    /**
     * Train a SMiTe model: characterize every workload in
     * @p training_set, measure all ordered co-location pairs among
     * them (both phases parallel, see the batch APIs), and fit
     * Equation 3. The sample order — and therefore the fit — is
     * identical to the serial protocol.
     */
    SmiteModel trainSmite(
        const std::vector<workload::WorkloadProfile> &training_set,
        CoLocationMode mode);

    /** Train the PMU baseline (Equation 9) on the same protocol. */
    PmuModel trainPmu(
        const std::vector<workload::WorkloadProfile> &training_set,
        CoLocationMode mode);

    /**
     * Predicted degradation for the many-instance protocol: the
     * pairwise model prediction scaled by the fraction of app
     * threads that actually have a co-runner.
     */
    static double scaleToInstances(double pair_prediction, int instances,
                                   int threads);

    /**
     * Persist measurements under @p path (write-through) and preload
     * any measurements already recorded there. Several experiment
     * harnesses share co-location measurements this way instead of
     * re-simulating them. Records are sharded across
     * `<path>.shard0..3` by key hash (each file with its own writer
     * lock); a legacy single
     * file at @p path itself is still preloaded. Each file is a
     * plain text key/value log headed by a version line; delete the
     * files to invalidate. Corrupt or truncated lines are skipped
     * with a warning on stderr.
     */
    void enableDiskCache(const std::string &path);

    /** The sharded disk cache (for inspection in tests). */
    const ShardedDiskCache &diskCache() const { return disk_; }

    /** Per-cache counts of measurements actually simulated. */
    struct Stats {
        std::uint64_t solo_ipc = 0;
        std::uint64_t solo_counters = 0;
        std::uint64_t pmu = 0;
        std::uint64_t characterizations = 0;
        std::uint64_t pairs = 0;
        std::uint64_t multi = 0;
        std::uint64_t ports = 0;
        std::uint64_t ruler_baselines = 0;

        /** Total memo-cache misses (computations performed). */
        std::uint64_t total() const
        {
            return solo_ipc + solo_counters + pmu + characterizations +
                   pairs + multi + ports + ruler_baselines;
        }
    };

    /** Computation counts since construction (thread-safe). */
    Stats stats() const;

  private:
    void appendToDisk(const std::string &key, const std::string &line);
    void loadDiskCache(const std::string &path);
    std::string pairKey(const std::string &a, const std::string &b,
                        CoLocationMode mode) const;

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
     * @p fn receives an attempt-qualified key ("<key>/aN") so keyed
     * fault decisions differ between attempts — a transient fault
     * stays transient.
     */
    template <typename Fn>
    auto
    withRetry(const std::string &key, Fn &&fn)
    {
        const int attempts = maxAttempts();
        for (int attempt = 1;; ++attempt) {
            try {
                return fn(key + "/a" + std::to_string(attempt));
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
    std::vector<rulers::Ruler> suite_;
    Characterizer characterizer_;
    sim::Cycle warmup_;
    sim::Cycle measure_;
    int parallelism_ = 0;
    int maxAttempts_ = 0;
    int trials_ = 0;

    MemoCache<std::string, double> soloIpcCache_;
    MemoCache<std::string, sim::CounterBlock> soloCounterCache_;
    MemoCache<std::string, PmuProfile> pmuCache_;
    MemoCache<std::string, Characterization> characterizationCache_;
    /** key -> (degradation of first, degradation of second) */
    MemoCache<std::string, std::pair<double, double>> pairCache_;
    MemoCache<std::string, double> multiCache_;
    MemoCache<std::string, std::array<double, sim::kNumPorts>>
        portCache_;

    ShardedDiskCache disk_;  ///< not enabled() = disk cache disabled
};

} // namespace smite::core

#endif // SMITE_CORE_EXPERIMENT_H
