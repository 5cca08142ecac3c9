#include "sim/replay.h"

#include <atomic>
#include <cstdlib>

#include "sim/digest.h"

namespace smite::sim {

namespace {

bool
envEnabled()
{
    // Kill-switch contract (docs/ROBUSTNESS.md): exactly "0" disables
    // replay; anything else (including unset) leaves it on.
    const char *v = std::getenv("SMITE_SIM_MEMO");
    return !(v != nullptr && v[0] == '0' && v[1] == '\0');
}

std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> flag{envEnabled()};
    return flag;
}

} // namespace

bool
replayEnabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

bool
setReplayEnabled(bool on)
{
    return enabledFlag().exchange(on, std::memory_order_relaxed);
}

std::uint64_t
configDigest(const MachineConfig &config)
{
    Digest d;
    d.str("machine.config");
    d.str(config.name);
    d.str(config.microarchitecture);
    d.f64(config.ghz);
    d.str(config.kernel);
    d.u64(static_cast<std::uint64_t>(config.numCores));
    d.u64(static_cast<std::uint64_t>(config.contextsPerCore));
    const CoreConfig &core = config.core;
    d.u64(static_cast<std::uint64_t>(core.fetchWidth));
    d.u64(static_cast<std::uint64_t>(core.issuePerContext));
    d.u64(static_cast<std::uint64_t>(core.issuePerCore));
    d.u64(static_cast<std::uint64_t>(core.windowSize));
    d.u64(static_cast<std::uint64_t>(core.schedDepth));
    d.u64(static_cast<std::uint64_t>(core.mshrs));
    d.u64(core.redirectPenalty);
    d.u64(static_cast<std::uint64_t>(core.fetchPolicy));
    d.u64(config.l2NextLinePrefetch ? 1 : 0);
    d.u64(config.inclusiveL3 ? 1 : 0);
    for (const CacheConfig *c :
         {&config.l1i, &config.l1d, &config.l2, &config.l3}) {
        d.str(c->name);
        d.u64(c->sizeBytes);
        d.u64(static_cast<std::uint64_t>(c->assoc));
        d.u64(c->hitLatency);
    }
    for (const TlbConfig *t : {&config.itlb, &config.dtlb}) {
        d.u64(static_cast<std::uint64_t>(t->entries));
        d.u64(t->walkLatency);
    }
    d.u64(config.dram.accessLatency);
    d.u64(config.dram.occupancyPerLine);
    return d.value();
}

core::MemoCache<ReplayKey, ReplayEntry> &
replayStore()
{
    static core::MemoCache<ReplayKey, ReplayEntry> store;
    static const bool instrumented =
        (store.instrument("machine.replay"), true);
    (void)instrumented;
    return store;
}

} // namespace smite::sim
