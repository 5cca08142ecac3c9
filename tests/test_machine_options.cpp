/**
 * @file
 * Tests for the optional microarchitectural features: the L2
 * next-line prefetcher and the inclusive L3.
 */

#include <gtest/gtest.h>

#include "sim/machine.h"
#include "sim/memory_system.h"
#include "workload/generator.h"
#include "workload/spec2006.h"

namespace smite::sim {
namespace {

TEST(Prefetcher, NextLineFillsL2)
{
    MachineConfig config;
    config.l2NextLinePrefetch = true;
    MemorySystem mem(config);
    CounterBlock ctr;
    Tlb dtlb(config.dtlb);

    // An ascending pattern confirms a stream: accessing line 1 with
    // line 0 resident prefetches line 2, which must then hit the L2.
    mem.dataAccess(0, false, 0, 0, ctr, dtlb);
    mem.dataAccess(0, false, kLineBytes, 5, ctr, dtlb);
    ASSERT_EQ(ctr.l3Misses, 2u);
    const Cycle latency = mem.dataAccess(0, false, 2 * kLineBytes, 10,
                                         ctr, dtlb);
    EXPECT_EQ(latency, config.l2.hitLatency);
    EXPECT_EQ(ctr.l3Misses, 2u);  // no third DRAM trip
}

TEST(Prefetcher, DisabledByDefault)
{
    MachineConfig config;
    MemorySystem mem(config);
    CounterBlock ctr;
    Tlb dtlb(config.dtlb);
    mem.dataAccess(0, false, 0, 0, ctr, dtlb);
    mem.dataAccess(0, false, kLineBytes, 10, ctr, dtlb);
    mem.dataAccess(0, false, 2 * kLineBytes, 20, ctr, dtlb);
    EXPECT_EQ(ctr.l3Misses, 3u);  // every line was cold
}

TEST(Prefetcher, RandomMissesDoNotTriggerPrefetch)
{
    MachineConfig config;
    config.l2NextLinePrefetch = true;
    MemorySystem mem(config);
    CounterBlock ctr;
    Tlb dtlb(config.dtlb);
    // Far-apart lines: no neighbour is ever resident, so no
    // bandwidth is spent on prefetches.
    mem.dataAccess(0, false, 0, 0, ctr, dtlb);
    mem.dataAccess(0, false, 100 * kLineBytes, 10, ctr, dtlb);
    mem.dataAccess(0, false, 200 * kLineBytes, 20, ctr, dtlb);
    EXPECT_EQ(mem.dram().transfers(), 3u);
}

TEST(Prefetcher, SpeedsUpStreamingWorkload)
{
    const auto &lbm = workload::spec2006::byName("470.lbm");
    MachineConfig base = MachineConfig::ivyBridge();
    MachineConfig with_pf = base;
    with_pf.l2NextLinePrefetch = true;

    workload::ProfileUopSource a(lbm), b(lbm);
    const double plain =
        Machine(base).runSolo(a, 20000, 100000).ipc();
    const double prefetched =
        Machine(with_pf).runSolo(b, 20000, 100000).ipc();
    EXPECT_GT(prefetched, plain * 1.05);
}

TEST(InclusiveL3, BackInvalidatesPrivateCopies)
{
    MachineConfig config;
    config.inclusiveL3 = true;
    // Tiny L3 so one conflict set is easy to construct: 16KB 4-way
    // => 64 sets; lines 0, 64, 128, 192, 256 conflict in set 0.
    config.l3 = CacheConfig{"L3", 16 * 1024, 4, 30};
    MemorySystem mem(config);
    CounterBlock ctr;
    Tlb dtlb(config.dtlb);

    mem.dataAccess(0, false, 0, 0, ctr, dtlb);  // line 0 in L1+L2+L3
    ASSERT_EQ(mem.dataAccess(0, false, 0, 1, ctr, dtlb),
              config.l1d.hitLatency);

    // Evict line 0 from the L3 by filling its set with 4 more lines.
    for (Addr k = 1; k <= 4; ++k)
        mem.dataAccess(0, false, k * 64 * kLineBytes, 2 + k, ctr, dtlb);

    // Inclusive: the L1 copy is gone; the access must go to memory.
    ctr = CounterBlock{};
    mem.dataAccess(0, false, 0, 100, ctr, dtlb);
    EXPECT_EQ(ctr.l1dHits, 0u);
    EXPECT_EQ(ctr.l3Misses, 1u);
}

TEST(InclusiveL3, NonInclusiveKeepsPrivateCopies)
{
    MachineConfig config;
    config.inclusiveL3 = false;
    config.l3 = CacheConfig{"L3", 16 * 1024, 4, 30};
    MemorySystem mem(config);
    CounterBlock ctr;
    Tlb dtlb(config.dtlb);

    mem.dataAccess(0, false, 0, 0, ctr, dtlb);
    for (Addr k = 1; k <= 4; ++k)
        mem.dataAccess(0, false, k * 64 * kLineBytes, 1 + k, ctr, dtlb);

    ctr = CounterBlock{};
    mem.dataAccess(0, false, 0, 100, ctr, dtlb);
    EXPECT_EQ(ctr.l1dHits, 1u);  // L1 copy survived the L3 eviction
}

TEST(CacheInvalidate, RemovesOnlyTheLine)
{
    SetAssocCache cache(CacheConfig{"t", 1024, 4, 3});
    cache.access(1, false);
    cache.access(2, false);
    EXPECT_TRUE(cache.invalidate(1));
    EXPECT_FALSE(cache.invalidate(1));  // already gone
    EXPECT_FALSE(cache.probe(1));
    EXPECT_TRUE(cache.probe(2));
}

TEST(CacheAccessResult, ReportsCleanEvictionsAsValid)
{
    SetAssocCache cache(CacheConfig{"t", 128, 2, 3});  // one set
    cache.access(1, false);
    cache.access(2, false);
    const auto result = cache.access(3, false);
    EXPECT_TRUE(result.evictedValid);
    EXPECT_FALSE(result.evictedDirty);
    EXPECT_EQ(result.evictedLine, 1u);
}

} // namespace
} // namespace smite::sim
