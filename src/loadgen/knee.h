/**
 * @file
 * Knee finding: the max offered QPS at which a co-location still
 * meets its tail-latency target.
 *
 * This is the admission controller's quantity (ISSUE 8; cf. the
 * hardware-QoS enforcement framing in PAPERS.md): a co-location that
 * "meets QoS" at the design load may be one burst away from violating
 * it, and the distance to the knee — where the latency-vs-load curve
 * turns up through the target — is the real headroom. findKnee()
 * bisects the offered rate between a configured lower bracket and
 * the pool's aggregate service rate (no open queue can sustain more),
 * probing each candidate with one open-loop step (loadgen/runStep).
 *
 * The search is exact, not statistical: every probe reuses arrival
 * stream 0 and the shared service stream, so a probe at a higher
 * rate replays *the same* work sequence with compressed gaps (the
 * search draws those rate-free gaps and service times once, with
 * drawStep, and each probe rescales them). Under
 * the Lindley recursion that makes every response time monotone
 * nondecreasing in the offered rate (common random numbers), which
 * makes pass/fail monotone and bisection well-posed — and, across
 * co-locations sharing one seed, makes the knee monotone in the
 * degraded service rate.
 */

#ifndef SMITE_LOADGEN_KNEE_H
#define SMITE_LOADGEN_KNEE_H

#include <cstdint>

#include "loadgen/loadgen.h"

namespace smite::loadgen {

/** One knee search. */
struct KneeConfig {
    /**
     * Probe template: arrival seed, server pool and
     * warmup/measure/cooldown windows; the sweep rate fields are
     * ignored (the bisection chooses rates).
     */
    SweepConfig probe;

    /** Tail-latency target (seconds) at probe.percentile. */
    double targetLatency = 0.005;

    /**
     * Lower bracket (QPS); the knee reports 0 if even this fails. The
     * upper bracket is the pool's aggregate service rate.
     */
    double qpsLo = 1.0;

    /** Bisection resolution (QPS). */
    double tolerance = 1.0;

    /** Count any measurement-window drop as a failed probe. */
    bool failOnDrop = true;
};

/** Outcome of one knee search. */
struct KneeResult {
    /**
     * Highest probed rate meeting the target (the knee); 0 when the
     * lower bracket already fails.
     */
    double kneeQps = 0.0;

    /** Tail latency measured at the knee (0 when kneeQps is 0). */
    double latencyAtKnee = 0.0;

    /** Probes spent by the bisection. */
    std::uint64_t probes = 0;
};

/**
 * Bisect [qpsLo, aggregate service rate] for the knee.
 * @throws std::invalid_argument on an empty or inverted bracket.
 */
KneeResult findKnee(const KneeConfig &config);

} // namespace smite::loadgen

#endif // SMITE_LOADGEN_KNEE_H
