/**
 * @file
 * Machine configuration schema and the two experimental platforms of
 * the paper's Table I (Sandy Bridge-EN and Ivy Bridge presets).
 */

#ifndef SMITE_SIM_CONFIG_H
#define SMITE_SIM_CONFIG_H

#include <string>

#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/tlb.h"
#include "sim/types.h"

namespace smite::sim {

/** Pipeline parameters of one SMT core. */
struct CoreConfig {
    int fetchWidth = 5;       ///< uops fetched per core per cycle
    int issuePerContext = 4;  ///< per-context issue width
    int issuePerCore = 6;     ///< total dispatch slots per cycle
    int windowSize = 128;     ///< in-flight uop window per context
    int schedDepth = 48;      ///< unissued uops examined per cycle
    int mshrs = 16;           ///< outstanding L1D misses per context
    Cycle redirectPenalty = 10;  ///< front-end bubble after mispredict
};

/** Full machine description (cores + memory hierarchy + DRAM). */
struct MachineConfig {
    std::string name = "generic";
    std::string microarchitecture = "generic";
    double ghz = 2.0;
    std::string kernel = "3.8.0";  ///< Table I flavour text
    int numCores = 2;
    int contextsPerCore = 2;

    CoreConfig core;

    /**
     * Optional next-line prefetcher at the L2: on an L2 demand miss
     * the following line is pulled into the L2 in the background
     * (consuming DRAM bandwidth if it is not cached). Off by
     * default; see bench_ablation_machine for its effect.
     */
    bool l2NextLinePrefetch = false;

    /**
     * Optional inclusive L3: evicting an L3 line back-invalidates it
     * from every core's private caches (the "inclusion victim"
     * effect of Sandy Bridge-class parts). Off by default.
     */
    bool inclusiveL3 = false;

    CacheConfig l1i{"L1I", 32 * 1024, 4, 4};
    CacheConfig l1d{"L1D", 32 * 1024, 8, 4};
    CacheConfig l2{"L2", 256 * 1024, 8, 12};
    CacheConfig l3{"L3", 8 * 1024 * 1024, 16, 30};
    TlbConfig itlb{128, 20};
    TlbConfig dtlb{512, 30};  ///< combined L1+L2 TLB reach
    DramConfig dram{160, 10};

    /** Total hardware contexts on the machine. */
    int totalContexts() const { return numCores * contextsPerCore; }

    /**
     * Table I row 1: Intel Xeon E5-2420 @ 1.90GHz (Sandy Bridge-EN),
     * 6 cores x 2 SMT contexts, 15MB shared L3.
     */
    static MachineConfig sandyBridgeEN();

    /**
     * Table I row 2: Intel i7-3770 @ 3.40GHz (Ivy Bridge),
     * 4 cores x 2 SMT contexts, 8MB shared L3.
     */
    static MachineConfig ivyBridge();
};

} // namespace smite::sim

#endif // SMITE_SIM_CONFIG_H
