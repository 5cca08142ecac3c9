/**
 * @file
 * Process-wide metrics registry: counters, gauges and histograms with
 * a lock-free hot path.
 *
 * Instruments register a metric once (one mutex acquisition) and keep
 * the returned reference; every subsequent update is a single relaxed
 * atomic operation, cheap enough to leave on unconditionally without
 * perturbing the measurement engine's determinism (metrics never feed
 * back into simulation results).
 *
 * *Collection* is therefore always on; *emission* is what the
 * SMITE_METRICS environment variable gates (see report.h and
 * bench/common.h) — with the variable unset no file is ever written
 * and nothing is printed. Code that must pay a real cost to observe
 * (e.g. reading a clock around every thread-pool task) checks
 * metricsEnabled() first.
 *
 * Naming convention: lowercase dotted paths, `<subsystem>.<object>.
 * <aspect>` (e.g. `machine.replay.hits`, `pool.task_us`). The full
 * catalog lives in docs/OBSERVABILITY.md and is cross-checked against
 * the registry by the tier-1 smoke test.
 */

#ifndef SMITE_OBS_METRICS_H
#define SMITE_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace smite::obs {

/**
 * True when the SMITE_METRICS environment variable enables metric
 * emission (set and not "0" or empty). Read once per process; tests
 * override via setMetricsEnabledForTesting().
 */
bool metricsEnabled();

/** Test hook: force metricsEnabled() regardless of the environment. */
void setMetricsEnabledForTesting(bool enabled);

/** A monotonically increasing counter. */
class Counter
{
  public:
    /** Add @p n (relaxed; safe from any thread). */
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Current total. */
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the counter (test isolation only). */
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** A last-value-wins instantaneous measurement. */
class Gauge
{
  public:
    /** Record the current level. */
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    /** Last recorded level. */
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the gauge (test isolation only). */
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * A distribution summary over positive samples: exact count/sum/min/
 * max plus base-2 exponential buckets (2^-16 .. 2^48) for approximate
 * percentiles. All updates are relaxed atomics; merging buckets into
 * a snapshot happens only at emission time.
 */
class Histogram
{
  public:
    /** Bucket count of the fixed base-2 layout. */
    static constexpr int kBuckets = 64;

    /** Record one sample (non-positive samples land in bucket 0). */
    void observe(double v);

    /** Samples recorded. */
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** Sum of samples. */
    double sum() const { return sum_.load(std::memory_order_relaxed); }

    /** Mean of samples (0 when empty). */
    double mean() const;

    /** Smallest sample (0 when empty). */
    double min() const;

    /** Largest sample (0 when empty). */
    double max() const;

    /**
     * Approximate @p p -quantile (p in [0, 1]): the upper bound of
     * the first bucket whose cumulative count reaches p * count,
     * clamped to the exact observed min/max.
     */
    double percentile(double p) const;

    /** Emission-time summary object for the run report. */
    json::Value summaryJson() const;

    /** Zero all samples (test isolation only). */
    void reset();

  private:
    static int bucketFor(double v);
    static double bucketUpper(int bucket);

    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/**
 * The process-wide metric namespace. Lookup-or-create takes a mutex;
 * the returned references are stable for the process lifetime, so
 * call sites hoist them (member pointer or function-local static) and
 * update lock-free afterwards.
 */
class Registry
{
  public:
    /** The singleton registry. */
    static Registry &global();

    /** Counter registered under @p name (created on first use). */
    Counter &counter(const std::string &name);

    /** Gauge registered under @p name (created on first use). */
    Gauge &gauge(const std::string &name);

    /** Histogram registered under @p name (created on first use). */
    Histogram &histogram(const std::string &name);

    /** All registered metric names, sorted, kind-prefixed-free. */
    std::vector<std::string> names() const;

    /**
     * Snapshot as the run report's "metrics" section:
     * {"counters": {...}, "gauges": {...}, "histograms": {...}}.
     */
    json::Value toJson() const;

    /**
     * Reset all values to zero (registrations survive, references
     * stay valid). Test isolation only — production code never
     * resets.
     */
    void resetForTesting();

  private:
    Registry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace smite::obs

#endif // SMITE_OBS_METRICS_H
