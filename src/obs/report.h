/**
 * @file
 * Structured run reports: one machine-readable JSON document per
 * bench/experiment run.
 *
 * A RunReport accumulates the run's configuration, named phase
 * timings and result values; toJson() stamps it with the schema id
 * and a snapshot of the global metrics Registry, so replay hit rates
 * and simulation counts ride along without per-harness plumbing.
 *
 * Document schema (`smite-run-report/1`, full reference with a worked
 * example in docs/OBSERVABILITY.md):
 *
 * @code{.json}
 * {
 *   "schema":  "smite-run-report/1",
 *   "name":    "bench_fig10_spec_smt_prediction",
 *   "gate":    { "results.*": 0 },            // only when declared
 *   "config":  { "machine": "Ivy Bridge", "threads": 8, ... },
 *   "timings": { "total_s": 12.34, ... },
 *   "results": { "smite_avg_error": 0.064, ... },
 *   "partial":   true,                        // only when degraded
 *   "incidents": ["dropped sample ...", ...], // only when degraded
 *   "metrics": { "counters": {...}, "gauges": {...},
 *                "histograms": {...} }
 * }
 * @endcode
 *
 * The `partial` / `incidents` pair appears only on runs that absorbed
 * failures (see obs/incident.h): consumers can treat their absence as
 * "every measurement completed". The `gate` appears only when the
 * harness declared one (addGate()): it tells report_diff how to
 * compare a fresh run against this report (obs/diff.h).
 *
 * Emission is the caller's decision; the bench reporter writes the
 * file only when SMITE_METRICS or SMITE_TRACE is set, so default runs
 * leave no files behind.
 */

#ifndef SMITE_OBS_REPORT_H
#define SMITE_OBS_REPORT_H

#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace smite::obs {

/** Schema identifier stamped into every report document. */
inline constexpr const char *kRunReportSchema = "smite-run-report/1";

/** Accumulator for one run's structured report. */
class RunReport
{
  public:
    /** @param name run identifier (conventionally the binary name). */
    explicit RunReport(std::string name) : name_(std::move(name)) {}

    /** The run identifier. */
    const std::string &name() const { return name_; }

    /** Record one configuration key (last write wins). */
    void setConfig(const std::string &key, json::Value value)
    {
        config_.set(key, std::move(value));
    }

    /** Record one phase duration in seconds. */
    void addTiming(const std::string &phase, double seconds)
    {
        timings_.set(phase, json::Value(seconds));
    }

    /** Record one result value (scalars or nested documents). */
    void addResult(const std::string &key, json::Value value)
    {
        results_.set(key, std::move(value));
    }

    /**
     * Declare one compare rule for when this report is a baseline
     * (obs/diff.h): leaves whose dotted path matches @p pattern
     * compare within the relative tolerance @p rule (0 is exact), or
     * not at all when @p rule is "ignore". The first matching
     * pattern, in declaration order, wins.
     */
    void addGate(const std::string &pattern, json::Value rule)
    {
        gate_.set(pattern, std::move(rule));
    }

    /**
     * Flag this run as degraded: some measurements failed and the
     * results were assembled without them. @p incidents lists what
     * was lost (typically IncidentLog::global().snapshot()).
     */
    void markPartial(std::vector<std::string> incidents)
    {
        partial_ = true;
        incidents_ = std::move(incidents);
    }

    /** True once markPartial() has been called. */
    bool partial() const { return partial_; }

    /**
     * The complete document, including a point-in-time snapshot of
     * the global metrics Registry.
     */
    json::Value toJson() const;

    /**
     * Serialize to @p path (pretty-printed). Returns false and warns
     * on stderr when the file cannot be written.
     */
    bool writeTo(const std::string &path) const;

  private:
    std::string name_;
    json::Value gate_ = json::Value::object();
    json::Value config_ = json::Value::object();
    json::Value timings_ = json::Value::object();
    json::Value results_ = json::Value::object();
    bool partial_ = false;
    std::vector<std::string> incidents_;
};

} // namespace smite::obs

#endif // SMITE_OBS_REPORT_H
