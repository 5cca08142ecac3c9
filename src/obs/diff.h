/**
 * @file
 * Structural comparison of two run-report documents under a gate.
 *
 * The reports are the pipeline's regression surface: two runs of the
 * same harness should produce the same `results`, and a chaos run's
 * damage should show up as a flagged difference, not a silent drift.
 * diffReports() compares two `smite-run-report/1` documents leaf by
 * leaf and returns one entry per divergence.
 *
 * What is compared, and how closely, is the first report's `gate`
 * (RunReport::addGate; the harness that writes a committed baseline
 * declares it, so the rules travel with the numbers). A gate maps
 * fnmatch(3) patterns over dotted leaf paths (`results.s4k_digest`,
 * `metrics.counters.pool.batches`; `*` also matches `.`) to a
 * relative tolerance (finite, >= 0; 0 is exact) or to `"ignore"`:
 *
 *  - the first matching pattern, in declaration order, wins;
 *  - a leaf that no pattern matches is not compared;
 *  - a key present in only one report is a divergence when one of
 *    its leaves has a tolerance rule; `"ignore"` exists to exempt
 *    leaves from a later, broader pattern;
 *  - `name`, `partial` and `gate` always compare exactly (an absent
 *    `partial` means complete; the gate's rules in order, since the
 *    order decides which one applies).
 *
 * A report without a gate compares `results` only, within a relative
 * 1e-9: the gate `{"results.*": 1e-9}`. The tools/report_diff CLI
 * wraps this for CI use.
 */

#ifndef SMITE_OBS_DIFF_H
#define SMITE_OBS_DIFF_H

#include <string>
#include <vector>

#include "obs/json.h"

namespace smite::obs {

/** One divergence between two reports. */
struct ReportDiffEntry {
    std::string path;    ///< e.g. "results.smite_avg_error"
    std::string detail;  ///< human-readable "a vs b" description
};

/**
 * Compare two report documents under @p a's gate. Empty result means
 * "equivalent". A differing gate comes first; the other entries
 * follow document order of @p a, then keys only @p b has, then
 * `partial`.
 *
 * @throws std::invalid_argument when a rule of @p a's gate is not a
 *         finite tolerance >= 0 or `"ignore"`, or the gate is not an
 *         object; nothing is compared then.
 */
std::vector<ReportDiffEntry> diffReports(const json::Value &a,
                                         const json::Value &b);

} // namespace smite::obs

#endif // SMITE_OBS_DIFF_H
