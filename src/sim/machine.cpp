#include "sim/machine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fault/keyed.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smite::sim {

namespace {

/** Base of the data address slice of placement @p i. */
constexpr Addr
dataBase(size_t i)
{
    return (2 * i + 1) * (Addr{1} << 40);
}

/** Base of the code address slice of placement @p i. */
constexpr Addr
codeBase(size_t i)
{
    return (2 * i + 2) * (Addr{1} << 40);
}

/**
 * Split the L3 capacity between the placements' hot data sets in
 * proportion to @p weights (water-filling, capped at each stream's
 * hot footprint). Returns the lines granted per placement.
 */
std::vector<std::uint64_t>
computeBudgets(const MachineConfig &config,
               const std::vector<Placement> &placements,
               const std::vector<double> &weights)
{
    const std::uint64_t l3_lines = config.l3.sizeBytes / kLineBytes;

    std::vector<std::uint64_t> want(placements.size());
    for (size_t i = 0; i < placements.size(); ++i)
        want[i] = placements[i].source->hotFootprint() / kLineBytes;

    // Weighted water-fill of the L3 capacity.
    std::vector<std::uint64_t> budget(placements.size(), 0);
    std::uint64_t pool = l3_lines;
    bool grew = true;
    while (grew && pool > 0) {
        grew = false;
        double weight_sum = 0.0;
        for (size_t i = 0; i < placements.size(); ++i) {
            if (budget[i] < want[i])
                weight_sum += weights[i];
        }
        if (weight_sum <= 0.0)
            break;
        const std::uint64_t round_pool = pool;
        for (size_t i = 0; i < placements.size() && pool > 0; ++i) {
            if (budget[i] >= want[i])
                continue;
            const auto share = static_cast<std::uint64_t>(
                static_cast<double>(round_pool) * weights[i] /
                weight_sum);
            const std::uint64_t grant =
                std::min({std::max<std::uint64_t>(1, share),
                          want[i] - budget[i], pool});
            if (grant > 0) {
                budget[i] += grant;
                pool -= grant;
                grew = true;
            }
        }
    }
    return budget;
}

/** Lines of program text pre-warmed for placement @p i. */
std::uint64_t
codeLineCount(const MachineConfig &config, const Placement &placement)
{
    const Addr code = std::min<Addr>(placement.source->codeFootprint(),
                                     config.l3.sizeBytes / 4);
    return (code + kLineBytes - 1) / kLineBytes;
}

/**
 * Functionally install the placements' hot data sets into the shared
 * L3, @p budget lines each. Insertion is chunk-interleaved so
 * co-runners' lines mix the way a shared LRU cache mixes them.
 */
void
prewarmData(MemorySystem &mem, size_t n, std::vector<std::uint64_t> budget,
            bool fresh)
{
    // On the first pass over a fresh machine every inserted line is
    // provably new (cursors only advance, address slices are
    // disjoint), so the L3 hit scan can be skipped wholesale.
    std::vector<Addr> cursor(n, 0);
    bool progress = true;
    while (progress) {
        progress = false;
        for (size_t i = 0; i < n; ++i) {
            if (fresh) {
                // Same chunk-interleaved insertion order, one batched
                // call per chunk instead of a call per line.
                const std::uint64_t chunk =
                    std::min<std::uint64_t>(64, budget[i]);
                if (chunk > 0) {
                    mem.prewarmDataAbsentRange(dataBase(i) + cursor[i],
                                               chunk);
                    cursor[i] += chunk * kLineBytes;
                    budget[i] -= chunk;
                    progress = true;
                }
                continue;
            }
            for (int k = 0; k < 64 && budget[i] > 0; ++k) {
                mem.prewarmData(dataBase(i) + cursor[i]);
                cursor[i] += kLineBytes;
                --budget[i];
                progress = true;
            }
        }
    }
}

/** Install the placements' program text (resident long before a run). */
void
prewarmCode(MemorySystem &mem, const MachineConfig &config,
            const std::vector<Placement> &placements, bool fresh)
{
    for (size_t i = 0; i < placements.size(); ++i) {
        if (fresh) {
            mem.prewarmDataAbsentRange(
                codeBase(i), codeLineCount(config, placements[i]));
            continue;
        }
        const Addr code = std::min<Addr>(
            placements[i].source->codeFootprint(),
            config.l3.sizeBytes / 4);
        for (Addr off = 0; off < code; off += kLineBytes)
            mem.prewarmData(codeBase(i) + off);
    }
}

} // namespace

ReplayEntry
Machine::runLive(const std::vector<Placement> &placements, Cycle warmup,
                 Cycle measure) const
{
    MemorySystem mem(config_);

    // Cores are constructed lazily, only where a placement lands: an
    // unplaced core is never ticked and never issues a memory access,
    // so its absence is unobservable — while its window, TLB and MSHR
    // arrays are a measurable share of the per-run setup cost for the
    // common 1-2 core runs.
    std::vector<std::unique_ptr<SmtCore>> cores(config_.numCores);
    for (size_t i = 0; i < placements.size(); ++i) {
        const Placement &p = placements[i];
        if (p.core < 0 || p.core >= config_.numCores ||
            p.context < 0 || p.context >= config_.contextsPerCore ||
            p.source == nullptr) {
            throw std::invalid_argument("invalid placement");
        }
        if (cores[p.core] == nullptr)
            cores[p.core] = std::make_unique<SmtCore>(config_, p.core);
        // Give each context a private slice of the address space so
        // co-runners contend for capacity, never share lines.
        cores[p.core]->context(p.context).bind(p.source, dataBase(i),
                                               codeBase(i));
    }

    auto counters_of = [&](size_t i) -> const CounterBlock & {
        const Placement &p = placements[i];
        return cores[p.core]->context(p.context).counters();
    };

    // Only tick cores with at least one bound context; an idle core's
    // tick is a no-op, so skipping it is behavior-preserving. Cycle
    // counters are bulk-added per interval (one cycle per tick per
    // active context) instead of being bumped inside every tick.
    std::vector<SmtCore *> live;
    for (const auto &core : cores) {
        if (core == nullptr)
            continue;
        for (int k = 0; k < core->numContexts(); ++k) {
            if (core->context(k).active()) {
                live.push_back(core.get());
                break;
            }
        }
    }
    // Event-driven scheduling state, persistent across the warmup and
    // measurement intervals so skips carry over interval boundaries.
    // wake[i] is the earliest cycle core i could act (its idleBound);
    // idleFrom[i] marks how far its idle accounting has been applied.
    const size_t n_live = live.size();
    std::vector<Cycle> wake(n_live, 0);
    std::vector<Cycle> idle_from(n_live, 0);
    std::uint64_t idle_skipped = 0;
    std::uint64_t wake_events = 0;

    auto tick_for = [&](Cycle from, Cycle to) {
        if (referenceTicking_) {
            // Reference mode: tick every live core every cycle, no
            // skipping. The ground truth the equivalence tests compare
            // the event-driven loop against.
            for (Cycle now = from; now < to; ++now) {
                for (SmtCore *core : live)
                    core->tick(now, mem);
            }
        } else {
            // Event loop: advance straight to the earliest per-core
            // wake time. A core whose wake is beyond `now` is provably
            // a no-op at `now` (its idleBound only depends on its own
            // state, which is frozen while it sleeps), so not ticking
            // it is behavior-preserving; the fetch-stall counters its
            // skipped ticks would have bumped are replayed in bulk by
            // accountIdle just before it runs again. Cores sharing a
            // wake cycle tick in `live` order — the same relative
            // order as the reference loop — so the interleaving of
            // shared-L3/DRAM accesses is identical.
            for (;;) {
                Cycle now = kNeverCycle;
                for (size_t i = 0; i < n_live; ++i)
                    now = wake[i] < now ? wake[i] : now;
                if (now >= to)
                    break;
                for (size_t i = 0; i < n_live; ++i) {
                    if (wake[i] != now)
                        continue;
                    if (now > idle_from[i]) {
                        live[i]->accountIdle(idle_from[i], now);
                        idle_skipped += now - idle_from[i];
                    }
                    live[i]->tick(now, mem);
                    ++wake_events;
                    idle_from[i] = now + 1;
                    wake[i] = live[i]->idleBound(now + 1);
                }
            }
            // Interval boundary: settle idle accounting up to `to` so
            // the counter snapshot taken between intervals is exact.
            // Spans never cross a core's wake time (to <= wake[i]
            // here), so the stall condition is constant across each.
            for (size_t i = 0; i < n_live; ++i) {
                if (to > idle_from[i]) {
                    live[i]->accountIdle(idle_from[i], to);
                    idle_skipped += to - idle_from[i];
                    idle_from[i] = to;
                }
            }
        }
        for (SmtCore *core : live) {
            for (int k = 0; k < core->numContexts(); ++k) {
                if (core->context(k).active())
                    core->context(k).counters().cycles += to - from;
            }
        }
    };

    // Pass 1: functional warming with statically estimated shared-
    // cache claims, then half the warmup interval. Weights enter as
    // square roots: under mixed LRU traffic a faster client gains
    // occupancy sub-linearly (its own lines also age), so softening
    // dominance matches observed shared-cache behaviour better than
    // a winner-take-most split.
    std::vector<double> weights(placements.size());
    for (size_t i = 0; i < placements.size(); ++i) {
        weights[i] =
            std::sqrt(placements[i].source->residencyWeight());
    }
    prewarmData(mem, placements.size(),
                computeBudgets(config_, placements, weights),
                /*fresh=*/true);
    prewarmCode(mem, config_, placements, /*fresh=*/true);
    const Cycle half_warmup = warmup / 2;
    tick_for(0, half_warmup);

    // Pass 2: under LRU, steady-state occupancy follows the achieved
    // access *rate*, so re-balance the warm sets using the IPC each
    // placement actually reached, then finish the warmup.
    if (placements.size() > 1 && half_warmup > 0) {
        for (size_t i = 0; i < placements.size(); ++i) {
            const double ipc = counters_of(i).ipc();
            weights[i] *= std::sqrt(std::max(ipc, 0.05));
        }
        prewarmData(mem, placements.size(),
                    computeBudgets(config_, placements, weights),
                    /*fresh=*/false);
        prewarmCode(mem, config_, placements,
                    /*fresh=*/false);  // keep text resident
    }
    tick_for(half_warmup, warmup);

    std::vector<CounterBlock> at_warmup(placements.size());
    for (size_t i = 0; i < placements.size(); ++i)
        at_warmup[i] = counters_of(i);

    tick_for(warmup, warmup + measure);

    ReplayEntry entry;
    entry.results.resize(placements.size());
    for (size_t i = 0; i < placements.size(); ++i)
        entry.results[i] = counters_of(i) - at_warmup[i];
    entry.idleSkipped = idle_skipped;
    entry.wakeEvents = wake_events;
    return entry;
}

std::vector<CounterBlock>
Machine::run(const std::vector<Placement> &placements, Cycle warmup,
             Cycle measure) const
{
    obs::Span span("machine.run",
                   std::to_string(placements.size()) + " contexts");
    fault::FaultPlan &faults = fault::FaultPlan::global();

    // Replay eligibility: every placed source must carry a stream
    // identity, and the reference tick loop opts out (it exists to
    // re-derive outcomes from scratch, never to replay them). The
    // kill-switch disables replay (docs/ROBUSTNESS.md). The key is
    // built either way: the keyed fault sites below hash it.
    bool memo = replayEnabled() && !referenceTicking_;
    ReplayKey key;
    key.reserve(4 + 3 * placements.size());
    key.push_back(configDigest(config_));
    key.push_back(warmup);
    key.push_back(measure);
    key.push_back(placements.size());
    for (const Placement &p : placements) {
        const std::uint64_t digest =
            p.source != nullptr ? p.source->streamDigest() : 0;
        memo = memo && digest != 0;
        key.push_back(static_cast<std::uint64_t>(p.core));
        key.push_back(static_cast<std::uint64_t>(p.context));
        key.push_back(digest);
    }
    const auto key_digest = [&] {
        fault::Digest d;
        for (const std::uint64_t word : key)
            d.u64(word);
        return std::to_string(d.value());
    };

    // `sim.replay` chaos site: a fired check sends this run down the
    // live path, bypassing the store. Live and replayed outcomes are
    // byte-identical by contract, so arming the site must not change
    // any result — exactly what the chaos-determinism test asserts.
    // Keyed on the replay key, so the decision is independent of call
    // order and thread interleaving.
    if (memo && faults.enabled() && faults.armed("sim.replay") &&
        faults.shouldInject("sim.replay", key_digest())) {
        memo = false;
    }

    ReplayEntry entry;
    if (memo) {
        entry = replayStore().getOrCompute(key, [&] {
            ReplayEntry live = runLive(placements, warmup, measure);
            if (runLog_ != nullptr)
                runLog_->append(key, live);
            return live;
        });
    } else {
        entry = runLive(placements, warmup, measure);
    }
    std::vector<CounterBlock> results = std::move(entry.results);

    // `machine.jitter` fault site: real PMUs never report the same
    // instruction count twice; perturb the retired-uop counts with
    // seeded Gaussian noise so the Lab's multi-trial aggregation has
    // something to reject. Keyed on the measurement attempt open on
    // this thread (fault::MeasurementScope: trials differ, a repeated
    // ask does not), the run and the placement, so the draws are the
    // same replayed or live, serial or pooled. Idle plan: untouched.
    if (faults.enabled() && faults.armed("machine.jitter")) {
        const std::string prefix = fault::MeasurementScope::current() +
                                   "|" + key_digest() + "|";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const std::string site_key = prefix + std::to_string(i);
            if (!faults.shouldInject("machine.jitter", site_key))
                continue;
            const double eps = std::max(
                -0.99, faults.gaussian("machine.jitter", site_key));
            CounterBlock &block = results[i];
            block.uops = static_cast<std::uint64_t>(
                std::llround(static_cast<double>(block.uops) *
                             (1.0 + eps)));
        }
    }

    // The obs tail runs here — never inside runLive — so a replayed
    // run contributes the same metric totals as the live run it
    // replays (memo-on and memo-off runs are indistinguishable in
    // machine.* counters).
    static obs::Counter &runs =
        obs::Registry::global().counter("machine.runs");
    static obs::Counter &cycles =
        obs::Registry::global().counter("machine.cycles");
    static obs::Counter &skipped =
        obs::Registry::global().counter("machine.idle_skipped_cycles");
    static obs::Counter &wakes =
        obs::Registry::global().counter("machine.wake_events");
    static obs::Histogram &ipc_samples =
        obs::Registry::global().histogram("machine.ipc");
    runs.add();
    cycles.add(warmup + measure);
    skipped.add(entry.idleSkipped);
    wakes.add(entry.wakeEvents);
    for (const CounterBlock &block : results)
        ipc_samples.observe(block.ipc());
    return results;
}

CounterBlock
Machine::runSolo(UopSource &app, Cycle warmup, Cycle measure) const
{
    return run({Placement{0, 0, &app}}, warmup, measure).front();
}

std::vector<CounterBlock>
Machine::runPairSmt(UopSource &app, UopSource &corunner, Cycle warmup,
                    Cycle measure) const
{
    return run({Placement{0, 0, &app}, Placement{0, 1, &corunner}},
               warmup, measure);
}

std::vector<CounterBlock>
Machine::runPairCmp(UopSource &app, UopSource &corunner, Cycle warmup,
                    Cycle measure) const
{
    return run({Placement{0, 0, &app}, Placement{1, 0, &corunner}},
               warmup, measure);
}

} // namespace smite::sim
