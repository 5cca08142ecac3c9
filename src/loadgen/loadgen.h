/**
 * @file
 * Open-loop stepped-rate load sweeps over the multi-server DES.
 *
 * Modeled on mutated's stepped client: sweep offered QPS from
 * `startQps` in increments of `stepSize` up to `stepStop`, and at
 * each step drive `preRequests + measureRequests + postRequests`
 * arrivals through the server pool, reporting statistics only over
 * the measurement window — warmup fills the queues to steady state,
 * cooldown keeps the window's tail from being censored by the end of
 * the run.
 *
 * Every step draws its Poisson arrivals from an independent keyed
 * sub-stream (stream id = step index) of one seed, and service times
 * are keyed per request, so a sweep is a pure function of its config:
 * its StepResults are identical across repeats and across
 * SMITE_THREADS settings even when a harness fans steps or whole
 * sweeps across a thread pool.
 *
 * Observability (docs/OBSERVABILITY.md): `loadgen.steps`,
 * `loadgen.requests`, `loadgen.completed` and `loadgen.dropped` count
 * work across all sweeps in the process; knee searches
 * (loadgen/knee.h) add `loadgen.knee_probes`.
 */

#ifndef SMITE_LOADGEN_LOADGEN_H
#define SMITE_LOADGEN_LOADGEN_H

#include <cstdint>
#include <vector>

#include "loadgen/arrival.h"
#include "queueing/des.h"

namespace smite::loadgen {

/** One stepped-rate sweep. */
struct SweepConfig {
    /**
     * Arrival template; `rate` is overridden per step and `stream`
     * per step index, the seed is taken as configured.
     */
    ArrivalConfig arrival;

    /** Server pool driven at every step (service rates and seed). */
    queueing::OpenLoopConfig servers;

    /** First offered rate (QPS). */
    double startQps = 100.0;

    /** Offered-rate increment between steps (mutated's step_size). */
    double stepSize = 100.0;

    /** Last offered rate, inclusive (mutated's step_stop). */
    double stepStop = 1000.0;

    /** Warmup arrivals discarded before the measurement window. */
    std::uint64_t preRequests = 1000;

    /** Arrivals inside the measurement window. */
    std::uint64_t measureRequests = 5000;

    /** Cooldown arrivals after the window (still simulated). */
    std::uint64_t postRequests = 500;

    /** Percentile reported per step (in (0, 1)). */
    double percentile = 0.95;
};

/** Measurement-window statistics of one sweep step. */
struct StepResult {
    double offeredQps = 0.0;       ///< arrival rate of this step
    double percentileValue = 0.0;  ///< windowed p-th percentile (s)
    double meanResponse = 0.0;     ///< windowed mean sojourn (s)
    double achievedQps = 0.0;      ///< completions / window span
    std::uint64_t offered = 0;     ///< window arrivals
    std::uint64_t completed = 0;   ///< window completions
    std::uint64_t dropped = 0;     ///< window drops (`des.drop`)

    bool operator==(const StepResult &) const = default;
};

/** All steps of one sweep, in offered-rate order. */
struct SweepResult {
    std::vector<StepResult> steps;
};

/**
 * The rate-free randomness of one step, one entry per request
 * (warmup, window and cooldown): unit-mean inter-arrival gaps with
 * `des.arrival_burst` applied, and unit-mean service draws. A step at
 * any rate rescales the same draws, so steps of one stream at
 * different rates can share them.
 */
struct StepDraws {
    std::vector<double> unitGaps;
    std::vector<double> unitService;
};

/** The draws of sub-stream @p stream under @p config 's seeds. */
StepDraws drawStep(const SweepConfig &config, std::uint64_t stream);

/**
 * Simulate one step: Poisson arrivals at @p offeredQps from
 * sub-stream @p stream driving the configured servers, with the
 * configured warmup/measure/cooldown windows. Exposed separately so
 * knee searches can probe single rates.
 */
StepResult runStep(const SweepConfig &config, double offeredQps,
                   std::uint64_t stream);

/**
 * runStep() over drawn randomness: runStep(config, qps, stream)
 * equals runStep(config, drawStep(config, stream), qps) bit for bit.
 */
StepResult runStep(const SweepConfig &config, const StepDraws &draws,
                   double offeredQps);

/** Run the full stepped sweep (serial; steps are independent). */
SweepResult runSweep(const SweepConfig &config);

} // namespace smite::loadgen

#endif // SMITE_LOADGEN_LOADGEN_H
