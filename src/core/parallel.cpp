#include "core/parallel.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "obs/env.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smite::core {

namespace {

/**
 * Pool metrics (docs/OBSERVABILITY.md): batches/tasks executed, the
 * width of the last batch, and — only while SMITE_METRICS is on,
 * because it costs two clock reads per task — a task-latency
 * histogram in microseconds.
 */
struct PoolMetrics {
    obs::Counter &batches =
        obs::Registry::global().counter("pool.batches");
    obs::Counter &tasks = obs::Registry::global().counter("pool.tasks");
    obs::Gauge &width = obs::Registry::global().gauge("pool.width");
    obs::Histogram &task_us =
        obs::Registry::global().histogram("pool.task_us");

    static PoolMetrics &
    get()
    {
        static PoolMetrics metrics;
        return metrics;
    }
};

/**
 * `pool.delay` fault site: stall this task for the site's configured
 * microseconds, emulating a loaded machine where some workers lag.
 * Purely a scheduling perturbation — results must not change, which
 * is exactly what the determinism tests lean on.
 */
void
maybeDelayTask(std::size_t i)
{
    fault::FaultPlan &faults = fault::FaultPlan::global();
    if (!faults.enabled())
        return;
    if (!faults.shouldInject("pool.delay", std::to_string(i)))
        return;
    const double us = faults.spec("pool.delay").micros;
    if (us > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double,
                                                          std::micro>(us));
    }
}

/** Run one iteration, timing it into the histogram when enabled. */
void
runTimed(const std::function<void(std::size_t)> &body, std::size_t i)
{
    maybeDelayTask(i);
    if (!obs::metricsEnabled()) {
        body(i);
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    body(i);
    const auto t1 = std::chrono::steady_clock::now();
    PoolMetrics::get().task_us.observe(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
}

} // namespace

int
defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return obs::envPositive("SMITE_THREADS",
                            hw > 0 ? static_cast<int>(hw) : 1);
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body,
            int threads)
{
    if (threads <= 0)
        threads = defaultThreadCount();
    if (threads == 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    PoolMetrics &metrics = PoolMetrics::get();
    metrics.batches.add();
    metrics.tasks.add(n);
    metrics.width.set(threads);
    obs::Span span("pool.batch", std::to_string(n) + " tasks x " +
                                     std::to_string(threads) +
                                     " workers");

    std::atomic<std::size_t> next{0};  // shared iteration cursor
    std::mutex mu;
    std::exception_ptr error;
    const auto drain = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                runTimed(body, i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mu);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    {
        std::vector<std::jthread> workers;
        workers.reserve(static_cast<std::size_t>(threads - 1));
        for (int t = 1; t < threads; ++t)
            workers.emplace_back(drain);
        drain();  // the caller is a worker too
    }  // joins the workers
    if (error)
        std::rethrow_exception(error);
}

} // namespace smite::core
