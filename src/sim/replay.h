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
 * — which is exactly what the Lab, the fig-grid harnesses and the
 * benchmark repeats key their requests on. The **ReplayStore**
 * memoizes whole run outcomes (the counter deltas plus the event-loop
 * tallies) in a single-flight `core::MemoCache`, so a repeated run
 * replays its recorded results without constructing a machine or
 * ticking a cycle.
 *
 * Byte-identity contract: with replay enabled, every observable
 * output — counters returned, fault draws consumed, obs metrics
 * totals — is byte-identical to the `SMITE_SIM_MEMO=0` disabled path
 * (pinned by tests/test_replay.cpp and the tier-1 memo-on/off
 * compare). Sources that cannot promise a stream identity
 * (UopSource::streamDigest() == 0) and reference-ticking runs bypass
 * the ReplayStore automatically.
 */

#ifndef SMITE_SIM_REPLAY_H
#define SMITE_SIM_REPLAY_H

#include <cstdint>
#include <vector>

#include "core/memo_cache.h"
#include "sim/config.h"
#include "sim/counters.h"

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
 * `machine.replay.{hits,misses,waits}`.
 */
core::MemoCache<ReplayKey, ReplayEntry> &replayStore();

} // namespace smite::sim

#endif // SMITE_SIM_REPLAY_H
