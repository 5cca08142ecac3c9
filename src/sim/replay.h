/**
 * @file
 * Run-level replay: interval memoization.
 *
 * Machine::run() binds (and therefore resets) every placed uop
 * source, so a run's outcome is a pure function of
 *
 *   (machine config, per-placement (core, context, stream identity),
 *    warmup cycles, measure cycles)
 *
 * The **ReplayStore** memoizes whole run outcomes (the counter deltas
 * plus the event-loop tallies) in a single-flight `sim::MemoCache`, so
 * a repeated run replays its recorded results without constructing a
 * machine or ticking a cycle. It is the system's only memo: every
 * repeat the Lab, the figure harnesses and the benchmark ask for is
 * served here.
 *
 * Byte-identity contract: with replay enabled, every observable
 * output — counters returned, keyed fault draws, obs metrics
 * totals — is byte-identical to the `SMITE_SIM_MEMO=0` disabled path
 * (pinned by tests/test_replay.cpp and the tier-1 memo-on/off
 * compare). Sources that cannot promise a stream identity
 * (UopSource::streamDigest() == 0) and reference-ticking runs bypass
 * the ReplayStore automatically. A RunLog carries the store across
 * processes.
 */

#ifndef SMITE_SIM_REPLAY_H
#define SMITE_SIM_REPLAY_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/counters.h"
#include "sim/memo_cache.h"

namespace smite::sim {

/**
 * Is run-level replay enabled? Defaults to on; the environment
 * kill-switch `SMITE_SIM_MEMO=0` (read once at first query) and
 * setReplayEnabled() turn it off.
 */
bool replayEnabled();

/**
 * Programmatically enable/disable replay (tests and benchmarks that
 * need both paths in one process). @return the previous setting.
 */
bool setReplayEnabled(bool on);

/** Digest of every outcome-relevant MachineConfig field. */
std::uint64_t configDigest(const MachineConfig &config);

/** Everything Machine::run() produces, recorded for replay. */
struct ReplayEntry {
    std::vector<CounterBlock> results;  ///< pre-jitter counter deltas
    std::uint64_t idleSkipped = 0;      ///< event-loop cycles skipped
    std::uint64_t wakeEvents = 0;       ///< event-loop core wakes
};

/**
 * Replay keys are flat digest vectors (ordered, cheap to compare):
 * [config digest, warmup, measure, n, then (core, context, stream
 * digest) per placement].
 */
using ReplayKey = std::vector<std::uint64_t>;

/**
 * The process-wide run-outcome store, instrumented as
 * `machine.replay.{hits,misses,waits}`; Machine::run() counts the runs
 * that skip it as `machine.replay.bypassed`.
 */
MemoCache<ReplayKey, ReplayEntry> &replayStore();

/**
 * First line of every run log; bump it when simulator behaviour
 * changes (tests/test_golden_sim.cpp pins it to the golden counters).
 */
inline constexpr const char *kRunLogVersion = "smite-replay v1";

/** The run log the harnesses and the CLI share, one for every machine. */
inline constexpr const char *kRunLogFile = "smite_replay_cache.txt";

/**
 * Crash-safe, append-only file of ReplayStore entries: it preloads the
 * store and records one line per run its machine simulates live — the
 * replay key, every placement's pre-jitter counter block (its
 * CounterWords), the event-loop tallies and a digest of all of them,
 * as decimal words.
 * Keyed like the store, a record is never reused for an edited
 * profile, another machine or other intervals; simulator behaviour,
 * which no key sees, is covered by kRunLogVersion.
 *
 * Crash safety: the version line is written to a temp file renamed
 * into place; each record is one O_APPEND write of a whole line, so
 * concurrent writers never interleave and a crash tears at most the
 * last line. Lines with the wrong field count or digest are skipped
 * with a `file:line` warning; losing one only costs re-simulating it.
 * Counters: `machine.replay.preloaded`, `machine.replay.appends`.
 */
class RunLog
{
  public:
    /**
     * Preload replayStore() from @p path when replay is enabled,
     * ignoring a file headed by another version. Writes nothing: the
     * file is created on the first append.
     */
    explicit RunLog(std::string path);

    /**
     * Record one live run. Starts the file afresh (version line
     * first) if it is missing or carries another version. The
     * `disk.corrupt` fault site damages the line on its way out.
     */
    void append(const ReplayKey &key, const ReplayEntry &entry);

  private:
    std::string path_;
    bool started_ = false;  ///< version line known present
};

} // namespace smite::sim

#endif // SMITE_SIM_REPLAY_H
