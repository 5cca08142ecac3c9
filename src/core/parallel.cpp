#include "core/parallel.h"

#include <algorithm>
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
 * width of the last batch, the straggler time of every batch (width x
 * batch wall - summed task wall, in microseconds: worker time spent
 * waiting for the last tasks) and — only while SMITE_METRICS is on —
 * a task-latency histogram in microseconds. The tasks are whole
 * simulations, so two clock reads per task cost nothing measurable.
 */
struct PoolMetrics {
    obs::Counter &batches =
        obs::Registry::global().counter("pool.batches");
    obs::Counter &tasks = obs::Registry::global().counter("pool.tasks");
    obs::Counter &idle_us = obs::Registry::global().counter("pool.idle_us");
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

/** Microseconds from @p since to now. */
double
microsSince(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - since)
        .count();
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
    // A worker beyond the n-th would find no task to claim.
    if (static_cast<std::size_t>(threads) > n)
        threads = static_cast<int>(n);
    PoolMetrics &metrics = PoolMetrics::get();
    metrics.batches.add();
    metrics.tasks.add(n);
    metrics.width.set(threads);
    obs::Span span("pool.batch", std::to_string(n) + " tasks x " +
                                     std::to_string(threads) +
                                     " workers");

    const auto start = std::chrono::steady_clock::now();
    std::atomic<std::size_t> next{0};  // shared iteration cursor
    std::mutex mu;
    std::exception_ptr error;
    double busy_us = 0.0;  // summed task wall, under mu
    const auto drain = [&] {
        double mine = 0.0;
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            maybeDelayTask(i);
            const auto t0 = std::chrono::steady_clock::now();
            try {
                body(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mu);
                if (!error)
                    error = std::current_exception();
            }
            const double us = microsSince(t0);
            mine += us;
            if (obs::metricsEnabled())
                metrics.task_us.observe(us);
        }
        const std::lock_guard<std::mutex> lock(mu);
        busy_us += mine;
    };
    {
        std::vector<std::jthread> workers;
        workers.reserve(static_cast<std::size_t>(threads - 1));
        for (int t = 1; t < threads; ++t)
            workers.emplace_back(drain);
        drain();  // the caller is a worker too
    }  // joins the workers
    metrics.idle_us.add(static_cast<std::uint64_t>(
        std::max(0.0, threads * microsSince(start) - busy_us)));
    if (error)
        std::rethrow_exception(error);
}

} // namespace smite::core
