/**
 * @file
 * Unit tests for the TLB and DRAM channel models.
 */

#include <gtest/gtest.h>

#include "sim/dram.h"
#include "sim/tlb.h"

namespace smite::sim {
namespace {

TEST(Tlb, MissThenHit)
{
    Tlb tlb(TlbConfig{4, 25});
    EXPECT_FALSE(tlb.access(100));
    EXPECT_TRUE(tlb.access(100));
    EXPECT_EQ(tlb.walkLatency(), 25u);
}

TEST(Tlb, LruReplacement)
{
    Tlb tlb(TlbConfig{2, 25});
    tlb.access(1);
    tlb.access(2);
    tlb.access(1);  // refresh 1
    tlb.access(3);  // evicts 2
    EXPECT_TRUE(tlb.access(1));
    EXPECT_FALSE(tlb.access(2));
}

/** Hits must maintain exact LRU order, not just save the last entry:
 *  with 4 entries, the eviction sequence follows recency of use. */
TEST(Tlb, LruOrderTracksHits)
{
    Tlb tlb(TlbConfig{4, 25});
    for (Addr page = 0; page < 4; ++page)
        tlb.access(page);
    tlb.access(1);
    tlb.access(0);
    tlb.access(3);  // recency now 2 < 1 < 0 < 3
    EXPECT_FALSE(tlb.access(10));  // evicts 2, the least recently used
    // The survivors all hit (hits never evict)...
    EXPECT_TRUE(tlb.access(1));
    EXPECT_TRUE(tlb.access(0));
    EXPECT_TRUE(tlb.access(3));
    EXPECT_TRUE(tlb.access(10));
    // ...and the predicted victim is the one page gone.
    EXPECT_FALSE(tlb.access(2));
}

TEST(Tlb, RejectsZeroEntries)
{
    EXPECT_THROW(Tlb(TlbConfig{0, 25}), std::invalid_argument);
}

/** Reach sweep: a working set within the reach never misses twice. */
class TlbReach : public ::testing::TestWithParam<int>
{
};

TEST_P(TlbReach, ResidentPagesHit)
{
    const int entries = GetParam();
    Tlb tlb(TlbConfig{entries, 30});
    for (int p = 0; p < entries; ++p)
        tlb.access(p);
    for (int p = 0; p < entries; ++p)
        EXPECT_TRUE(tlb.access(p)) << "page " << p;
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlbReach,
                         ::testing::Values(1, 2, 8, 64, 512));

TEST(Dram, IdleAccessLatency)
{
    DramChannel dram(DramConfig{100, 4});
    EXPECT_EQ(dram.access(1000), 100u);
}

TEST(Dram, BackToBackAccessesQueue)
{
    DramChannel dram(DramConfig{100, 4});
    EXPECT_EQ(dram.access(0), 100u);   // occupies [0, 4)
    EXPECT_EQ(dram.access(0), 104u);   // waits 4, then 100
    EXPECT_EQ(dram.access(0), 108u);
    EXPECT_EQ(dram.transfers(), 3u);
}

TEST(Dram, ChannelDrainsWhenIdle)
{
    DramChannel dram(DramConfig{100, 4});
    dram.access(0);
    // Long after the channel is free again: no queueing delay.
    EXPECT_EQ(dram.access(1000), 100u);
}

TEST(Dram, WritebackConsumesBandwidthOnly)
{
    DramChannel dram(DramConfig{100, 4});
    dram.writeback(0);                 // occupies [0, 4)
    EXPECT_EQ(dram.access(0), 104u);   // demand waits behind it
    EXPECT_EQ(dram.transfers(), 2u);
}

/** Sustained throughput is bounded by 1/occupancy lines per cycle. */
TEST(Dram, SustainedBandwidthBound)
{
    const Cycle occupancy = 8;
    DramChannel dram(DramConfig{50, occupancy});
    Cycle now = 0;
    for (int i = 0; i < 1000; ++i) {
        const Cycle latency = dram.access(now);
        // Arrival rate of one per cycle far exceeds 1/8 per cycle.
        now += 1;
        (void)latency;
    }
    // 1000 transfers x 8 cycles occupancy => last finishes near 8000.
    const Cycle final_latency = dram.access(now);
    EXPECT_GE(final_latency, 1000 * occupancy - now);
}

} // namespace
} // namespace smite::sim
