/**
 * @file
 * Deterministic fault injection for the measurement pipeline.
 *
 * The paper measures on real machines, where runs fail, counters
 * jitter and files tear; our simulator substitutes a deterministic
 * machine, so none of that ever happens — and none of the resilience
 * a production predictor needs would ever be exercised. The FaultPlan
 * is a process-wide registry of named *fault sites* (points in the
 * code that ask "should I misbehave here?") with a per-site
 * probability and seed, so chaos runs are reproducible and plain
 * runs are untouched.
 *
 * Sites wired into the pipeline (see docs/ROBUSTNESS.md):
 *
 *   machine.jitter     Gaussian noise on simulated instruction counts
 *   lab.measure        transient MeasurementError from Lab computes
 *   disk.corrupt       bit flips / truncation / torn run-log appends
 *   pool.delay         artificial thread-pool task delays
 *   sim.replay         forces a machine run past the replay store
 *   server.fail        cluster-model server failures
 *   scheduler.observe  Gaussian noise on the online scheduler's
 *                      per-server QoS observations
 *   des.server_stall   Gaussian stretch of one open-loop request's
 *                      service time (tail-latency chaos)
 *   des.drop           open-loop request lost at admission
 *   des.arrival_burst  compressed inter-arrival gap (load spikes)
 *
 * Configuration comes from the SMITE_FAULTS environment variable
 * (parsed once, on first FaultPlan::global() use) or the arm() API:
 *
 *   SMITE_FAULTS="machine.jitter:p=1,sigma=0.05,seed=7;lab.measure:p=0.2"
 *
 * Clause grammar: `site[:key=value[,key=value...]]` joined by `;`.
 * Keys: `p` (per-check firing probability, in [0, 1]), `seed` (an
 * unsigned 64-bit integer), `sigma` (Gaussian width for jitter
 * sites, finite and non-negative) and `us` (delay in microseconds
 * for delay sites, in [0, 1e15]). A clause with an unknown key or an
 * out-of-range value is skipped with a warning — a typo must never
 * turn into a silently fault-free chaos run without trace.
 *
 * Determinism: every decision and draw hashes (seed, site, key), so
 * whether a given measurement is faulted does not depend on call order
 * or thread interleaving. Sites deep in the stack (machine.jitter) key
 * on the MeasurementScope active on their thread. With no site armed
 * every query is a single relaxed atomic load and nothing in the
 * pipeline changes — outputs stay byte-identical to a build without
 * faults (enforced by tests/test_fault.cpp and the tier-1 smoke).
 */

#ifndef SMITE_FAULT_FAULT_H
#define SMITE_FAULT_FAULT_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace smite::fault {

/**
 * A transient measurement failure: the simulated analogue of a
 * crashed benchmark run or an unreadable counter on a real machine.
 * The Lab retries these (bounded, with backoff); callers that see one
 * escape know the retry budget is exhausted.
 */
class MeasurementError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Per-site configuration of one armed fault site. */
struct SiteSpec {
    /** Probability a check fires. */
    double probability = 0.0;
    /** Decision seed; 0 means "derive from the site name". */
    std::uint64_t seed = 0;
    /** Gaussian width for jitter sites (fraction of the value). */
    double sigma = 0.0;
    /** Delay for delay sites, microseconds. */
    double micros = 0.0;
};

/**
 * The process-wide fault registry.
 *
 * Checks are thread-safe. Each armed site publishes
 * `fault.<site>.checks` and `fault.<site>.injected` counters to the
 * global metrics registry, so every chaos run is auditable.
 */
class FaultPlan
{
  public:
    /**
     * The singleton plan. The first call parses SMITE_FAULTS from the
     * environment, if set.
     */
    static FaultPlan &global();

    /**
     * Parse a SMITE_FAULTS spec string and arm its sites (adds to any
     * sites already armed). Malformed clauses warn on stderr and are
     * skipped. @return number of sites armed by this call.
     */
    int configure(const std::string &spec);

    /** Arm (or re-arm) one site. */
    void arm(const std::string &site, const SiteSpec &spec);

    /** Disarm one site (no-op if not armed). */
    void disarm(const std::string &site);

    /** Disarm everything (tests). */
    void reset();

    /** True when at least one site is armed (one relaxed load). */
    bool
    enabled() const
    {
        return armed_.load(std::memory_order_relaxed) > 0;
    }

    /** True when @p site is armed. */
    bool armed(const std::string &site) const;

    /** The armed spec of @p site (all zeros when not armed). */
    SiteSpec spec(const std::string &site) const;

    /**
     * Keyed decision: should the fault fire for @p key? The outcome
     * is a pure function of (seed, site, key) — independent of call
     * order and thread interleaving. Always false when the site is
     * not armed.
     */
    bool shouldInject(const std::string &site, std::string_view key);

    /**
     * Seeded N(0, sigma) draw keyed by @p key — the same key always
     * jitters the same way.
     */
    double gaussian(const std::string &site, std::string_view key);

  private:
    struct Site;

    FaultPlan() = default;
    Site *find(const std::string &site) const;
    bool decide(Site &s, std::uint64_t key_hash);

    mutable std::shared_mutex mu_;
    std::map<std::string, std::unique_ptr<Site>> sites_;
    std::atomic<int> armed_{0};
};

/**
 * Convenience for Lab compute lambdas: throw MeasurementError when
 * the (keyed) site fires. No-op when the plan is idle.
 */
void maybeThrow(const std::string &site, std::string_view key);

/**
 * RAII: names the measurement attempt the calling thread is taking
 * (the Lab's `<measurement>[/tT]/aN` key), so a site deep in the
 * stack can key its decisions on it. Scopes nest per thread: the
 * innermost key is current, and the enclosing one returns when it
 * closes.
 */
class MeasurementScope
{
  public:
    explicit MeasurementScope(std::string key);
    ~MeasurementScope();

    MeasurementScope(const MeasurementScope &) = delete;
    MeasurementScope &operator=(const MeasurementScope &) = delete;

    /** The innermost key open on this thread; "" outside any scope. */
    static const std::string &current();

  private:
    std::string enclosing_;
};

} // namespace smite::fault

#endif // SMITE_FAULT_FAULT_H
