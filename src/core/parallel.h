/**
 * @file
 * Minimal parallel-execution engine for the measurement Lab.
 *
 * Every measurement the paper's protocol needs — N workloads x 7
 * Ruler dimensions x {SMT, CMP}, plus O(N^2) ordered training pairs —
 * is an independent simulation with no cross-run state, so the Lab
 * fans them out across cores. The engine is one function:
 * parallelFor() starts its workers for one loop, they and the caller
 * self-schedule iterations off a shared atomic cursor (dynamic
 * scheduling; no per-thread static partition to go idle early), and
 * it joins them before returning. Each batch is a set of whole
 * simulations, so no persistent pool is needed.
 *
 * Determinism contract: parallelFor(n, body) invokes body(i) exactly
 * once for every i in [0, n), in unspecified order and concurrently.
 * Callers index results by i, so the *assembled* result of a parallel
 * batch is byte-identical to the serial loop — the simulations
 * themselves are pure functions of (config, seed).
 *
 * The worker count defaults to the SMITE_THREADS environment variable
 * when set, else std::thread::hardware_concurrency(). With one
 * thread, parallelFor degrades to a plain loop on the calling thread
 * (no threads, no locks) — the serial path.
 */

#ifndef SMITE_CORE_PARALLEL_H
#define SMITE_CORE_PARALLEL_H

#include <cstddef>
#include <functional>

namespace smite::core {

/**
 * Worker threads to use when the caller does not say: the
 * SMITE_THREADS environment variable if set to a positive integer,
 * else std::thread::hardware_concurrency(), and at least 1.
 */
int defaultThreadCount();

/**
 * Parallel loop: run body(i) for every i in [0, n) on @p threads
 * workers (<= 0 = defaultThreadCount(); never more than n), the
 * calling thread among them, blocking until all iterations finish.
 * The first exception thrown by any iteration is rethrown here once
 * the remaining iterations have run. With one thread or n <= 1 this
 * is a plain serial loop on the calling thread.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &body,
                 int threads = 0);

} // namespace smite::core

#endif // SMITE_CORE_PARALLEL_H
