/**
 * @file
 * Thread-safe single-flight memoization cache: the map behind the
 * run-level ReplayStore (sim/replay.h).
 *
 * Runs are expensive (whole-machine simulations) and the Lab's batch
 * APIs ask for them from a thread pool, so two guarantees matter:
 *
 *  1. *thread safety* — concurrent lookups and inserts never race
 *     (reads take a shared lock, writes an exclusive one);
 *  2. *single flight* — when several threads miss on the same key at
 *     once, exactly one runs the compute function; the others block
 *     until the value is ready and then share it. Two threads never
 *     simulate the same key twice.
 *
 * Slots are heap-allocated and shared, so the references handed out
 * stay valid for as long as any consumer holds them.
 *
 * Failure semantics (pinned by tests/test_parallel.cpp): if a compute
 * function throws, the exception propagates to the computing caller
 * *and* to every thread waiting on that in-flight key, but the key is
 * NOT poisoned — the failed slot is discarded, and a later call with
 * the same key runs the compute function again: a failure may be
 * transient, so retrying must be possible; only successful values
 * are memoized.
 */

#ifndef SMITE_SIM_MEMO_CACHE_H
#define SMITE_SIM_MEMO_CACHE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace smite::sim {

/**
 * Shared-mutex-guarded map with single-flight computation.
 *
 * @tparam Key ordered key type
 * @tparam Value default-constructible result type
 */
template <typename Key, typename Value>
class MemoCache
{
  public:
    /**
     * Register this cache's traffic with the global metrics
     * Registry under `<prefix>.hits` / `<prefix>.misses` /
     * `<prefix>.waits` (see docs/OBSERVABILITY.md): a *hit* found a
     * ready value on the shared-lock fast path, a *miss* elected this
     * caller to compute, a *wait* blocked on another thread's
     * in-flight computation of the same key (single-flight
     * contention). Call once, before concurrent use; updates are
     * relaxed atomic increments.
     */
    void
    instrument(const std::string &prefix)
    {
        obs::Registry &registry = obs::Registry::global();
        hits_ = &registry.counter(prefix + ".hits");
        misses_ = &registry.counter(prefix + ".misses");
        waits_ = &registry.counter(prefix + ".waits");
    }

    /**
     * Return the cached value for @p key, computing it with
     * @p compute on a miss. Concurrent callers of the same key
     * block until the one elected computer finishes (single-flight).
     * If the computer throws, all of them — computer and waiters —
     * see the exception and the key is left absent, so the next call
     * retries. The returned reference is stable for the cache's
     * lifetime.
     */
    template <typename Fn>
    const Value &
    getOrCompute(const Key &key, Fn &&compute)
    {
        {
            std::shared_lock<std::shared_mutex> read(mu_);
            const auto it = slots_.find(key);
            if (it != slots_.end() && it->second->ready) {
                if (hits_)
                    hits_->add();
                return it->second->value;
            }
        }
        std::unique_lock<std::shared_mutex> write(mu_);
        const auto [it, inserted] = slots_.try_emplace(key);
        if (!inserted) {
            // Someone else owns (or finished) this key: wait it out.
            // Keep the slot alive independently of the map — a failed
            // flight erases its map entry before we wake.
            const std::shared_ptr<Slot> slot = it->second;
            if (slot->ready) {
                if (hits_)
                    hits_->add();
            } else if (waits_) {
                waits_->add();
            }
            cv_.wait(write, [&] { return slot->ready; });
            if (slot->error)
                std::rethrow_exception(slot->error);
            return slot->value;
        }
        it->second = std::make_shared<Slot>();
        const std::shared_ptr<Slot> slot = it->second;
        if (misses_)
            misses_->add();
        // We own the computation; run it unlocked so other keys
        // proceed and nested lookups cannot deadlock.
        write.unlock();
        computes_.fetch_add(1, std::memory_order_relaxed);
        Value value{};
        std::exception_ptr error;
        try {
            value = compute();
        } catch (...) {
            error = std::current_exception();
        }
        write.lock();
        slot->value = std::move(value);
        slot->error = error;
        slot->ready = true;
        if (error) {
            // Don't memoize the failure: waiters hold the slot and
            // rethrow; the next caller finds no entry and retries.
            slots_.erase(key);
        }
        cv_.notify_all();
        if (error)
            std::rethrow_exception(error);
        return slot->value;
    }

    /**
     * Insert a ready value if the key is absent (e.g. preloading the
     * ReplayStore from a run log). Existing entries — ready or in
     * flight — win.
     */
    void
    put(const Key &key, Value value)
    {
        std::unique_lock<std::shared_mutex> write(mu_);
        const auto [it, inserted] = slots_.try_emplace(key);
        if (!inserted)
            return;
        it->second = std::make_shared<Slot>();
        it->second->value = std::move(value);
        it->second->ready = true;
    }

    /** Number of compute invocations (misses actually attempted). */
    std::uint64_t
    computeCount() const
    {
        return computes_.load(std::memory_order_relaxed);
    }

    /** Number of entries (ready or in flight). */
    std::size_t
    size() const
    {
        std::shared_lock<std::shared_mutex> read(mu_);
        return slots_.size();
    }

  private:
    struct Slot {
        Value value{};
        std::exception_ptr error;
        bool ready = false;
    };

    mutable std::shared_mutex mu_;
    std::condition_variable_any cv_;
    std::map<Key, std::shared_ptr<Slot>> slots_;
    std::atomic<std::uint64_t> computes_{0};
    obs::Counter *hits_ = nullptr;    ///< null until instrument()
    obs::Counter *misses_ = nullptr;
    obs::Counter *waits_ = nullptr;
};

} // namespace smite::sim

#endif // SMITE_SIM_MEMO_CACHE_H
