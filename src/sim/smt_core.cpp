#include "sim/smt_core.h"

namespace smite::sim {

SmtCore::SmtCore(const MachineConfig &config, int core_id)
    : coreConfig_(config.core), coreId_(core_id)
{
    contexts_.reserve(config.contextsPerCore);
    for (int i = 0; i < config.contextsPerCore; ++i)
        contexts_.emplace_back(config.core, config.itlb, config.dtlb);
}

void
SmtCore::tick(Cycle now, MemorySystem &mem)
{
    // Idle contexts no-op through fetch and issue, so arbitration
    // only matters when at least two contexts are live: an idle core
    // returns immediately and a solo context just consumes the full
    // core bandwidth, skipping the rotation. Both fast paths are
    // observationally identical to the general loop.
    const int n = numContexts();
    int active = 0;
    int solo = -1;
    for (int k = 0; k < n; ++k) {
        if (contexts_[k].active()) {
            ++active;
            solo = k;
        }
    }
    if (active == 0)
        return;
    if (active == 1) {
        HardwareContext &ctx = contexts_[solo];
        ctx.fetch(now, coreConfig_.fetchWidth, coreId_, mem);
        unsigned port_busy = 0;
        int core_budget = coreConfig_.issuePerCore;
        ctx.issue(now, port_busy, core_budget, coreId_, mem,
                  /*solo_on_core=*/true);
        return;
    }

    // Rotation seed; contexts-per-core is virtually always a power of
    // two, so avoid the hardware divide on this per-tick path.
    const int first = (n & (n - 1)) == 0
                          ? static_cast<int>(now & static_cast<Cycle>(n - 1))
                          : static_cast<int>(now % n);

    // Front end: contexts share the fetch bandwidth.
    int fetch_budget = coreConfig_.fetchWidth;
    int idx = first;
    for (int k = 0; k < n && fetch_budget > 0; ++k) {
        fetch_budget -= contexts_[idx].fetch(now, fetch_budget,
                                             coreId_, mem);
        idx = idx + 1 == n ? 0 : idx + 1;
    }

    // Issue: ports and core dispatch slots are shared; same rotation.
    unsigned port_busy = 0;
    int core_budget = coreConfig_.issuePerCore;
    idx = first;
    for (int k = 0; k < n && core_budget > 0; ++k) {
        contexts_[idx].issue(now, port_busy, core_budget, coreId_, mem,
                             /*solo_on_core=*/false);
        idx = idx + 1 == n ? 0 : idx + 1;
    }
}

} // namespace smite::sim
