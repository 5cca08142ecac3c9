/**
 * @file
 * Unit tests for the set-associative LRU cache model.
 */

#include <gtest/gtest.h>

#include "sim/cache.h"

namespace smite::sim {
namespace {

CacheConfig
smallCache(std::uint64_t size = 4 * 1024, int assoc = 4)
{
    CacheConfig config;
    config.name = "test";
    config.sizeBytes = size;
    config.assoc = assoc;
    config.hitLatency = 3;
    return config;
}

TEST(Cache, MissThenHit)
{
    SetAssocCache cache(smallCache());
    EXPECT_FALSE(cache.access(42, false).hit);
    EXPECT_TRUE(cache.access(42, false).hit);
    EXPECT_TRUE(cache.probe(42));
}

TEST(Cache, ProbeDoesNotAllocate)
{
    SetAssocCache cache(smallCache());
    EXPECT_FALSE(cache.probe(7));
    EXPECT_FALSE(cache.access(7, false).hit);
}

TEST(Cache, GeometryComputed)
{
    SetAssocCache cache(smallCache(8 * 1024, 8));
    // 8 KiB / 64 B = 128 lines, 8-way => 16 sets.
    EXPECT_EQ(cache.numSets(), 16u);
}

TEST(Cache, RejectsBadGeometry)
{
    CacheConfig config = smallCache();
    config.assoc = 0;
    EXPECT_THROW(SetAssocCache{config}, std::invalid_argument);
    config = smallCache(100, 3);  // not a multiple of assoc * 64
    EXPECT_THROW(SetAssocCache{config}, std::invalid_argument);
}

TEST(Cache, LruEvictsOldest)
{
    // 1 set x 2 ways: sizeBytes = 2 lines, assoc 2.
    SetAssocCache cache(smallCache(128, 2));
    cache.access(0, false);
    cache.access(1, false);
    cache.access(0, false);       // 0 is now MRU
    cache.access(2, false);       // evicts 1 (LRU)
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(1));
    EXPECT_TRUE(cache.probe(2));
}

TEST(Cache, DirtyEvictionReported)
{
    SetAssocCache cache(smallCache(128, 2));  // one set, two ways
    cache.access(10, true);   // dirty
    cache.access(11, false);  // clean
    const auto result = cache.access(12, false);  // evicts 10
    EXPECT_FALSE(result.hit);
    EXPECT_TRUE(result.evictedDirty);
    EXPECT_EQ(result.evictedLine, 10u);
}

TEST(Cache, CleanEvictionNotReported)
{
    SetAssocCache cache(smallCache(128, 2));
    cache.access(10, false);
    cache.access(11, false);
    const auto result = cache.access(12, false);
    EXPECT_FALSE(result.hit);
    EXPECT_FALSE(result.evictedDirty);
}

TEST(Cache, WriteMarksDirtyOnHit)
{
    SetAssocCache cache(smallCache(128, 2));
    cache.access(10, false);   // clean fill
    cache.access(10, true);    // dirty via write hit
    cache.access(11, false);
    const auto result = cache.access(12, false);
    EXPECT_TRUE(result.evictedDirty);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    // 4 sets x 2 ways.
    SetAssocCache cache(smallCache(512, 2));
    // Fill set 0 with three conflicting lines; set 1 untouched.
    cache.access(0, false);
    cache.access(4, false);
    cache.access(8, false);  // evicts line 0
    cache.access(1, false);  // set 1
    EXPECT_FALSE(cache.probe(0));
    EXPECT_TRUE(cache.probe(1));
}

/** Working sets within capacity must fully hit after one pass. */
class CacheResidency
    : public ::testing::TestWithParam<std::pair<std::uint64_t, int>>
{
};

TEST_P(CacheResidency, ResidentSetAlwaysHitsAfterWarmup)
{
    const auto [size, assoc] = GetParam();
    SetAssocCache cache(smallCache(size, assoc));
    const std::uint64_t lines = size / kLineBytes;
    for (Addr line = 0; line < lines; ++line)
        cache.access(line, false);
    for (Addr line = 0; line < lines; ++line)
        EXPECT_TRUE(cache.access(line, false).hit) << "line " << line;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheResidency,
    ::testing::Values(std::make_pair(std::uint64_t{1024}, 1),
                      std::make_pair(std::uint64_t{4096}, 2),
                      std::make_pair(std::uint64_t{8192}, 4),
                      std::make_pair(std::uint64_t{32768}, 8),
                      std::make_pair(std::uint64_t{65536}, 16)));

/** Over-subscribed sequential walks must miss every time (LRU). */
TEST(Cache, SequentialOverSubscriptionThrashes)
{
    SetAssocCache cache(smallCache(1024, 2));  // 16 lines
    const Addr lines = 24;                     // 1.5x capacity
    for (int pass = 0; pass < 3; ++pass) {
        int hits = 0;
        for (Addr line = 0; line < lines; ++line)
            hits += cache.access(line, false).hit ? 1 : 0;
        if (pass > 0) {
            EXPECT_EQ(hits, 0) << "pass " << pass;
        }
    }
}

// ----- Interface pins: the exact replacement semantics the flat ----
// ----- kernels must preserve (fill order, hit recency, dirty -------
// ----- propagation, prefix-fill maintenance). ----------------------

/** Hits reorder recency: the victim is the least recently USED way,
 *  not the least recently filled one. */
TEST(Cache, LruOrderTracksHits)
{
    SetAssocCache cache(smallCache(256, 4));  // one set, four ways
    for (Addr line : {0, 1, 2, 3})
        cache.access(line, false);
    // Touch in an order that makes fill order and recency disagree.
    cache.access(1, false);
    cache.access(0, false);
    cache.access(3, false);  // recency now 2 < 1 < 0 < 3
    EXPECT_EQ(cache.access(4, false).evictedLine, 2u);
    EXPECT_EQ(cache.access(5, false).evictedLine, 1u);
    EXPECT_EQ(cache.access(6, false).evictedLine, 0u);
    EXPECT_EQ(cache.access(7, false).evictedLine, 3u);
}

/** Write misses allocate, and the allocated line is born dirty. */
TEST(Cache, WriteAllocatesDirtyOnMiss)
{
    SetAssocCache cache(smallCache(128, 2));  // one set, two ways
    EXPECT_FALSE(cache.access(10, true).hit);
    EXPECT_TRUE(cache.probe(10));
    cache.access(11, false);
    const auto result = cache.access(12, false);  // evicts 10
    EXPECT_TRUE(result.evictedValid);
    EXPECT_TRUE(result.evictedDirty);
    EXPECT_EQ(result.evictedLine, 10u);
}

/** An invalidated line takes its dirty bit with it: re-allocating the
 *  same line clean must not resurrect the old dirty state. */
TEST(Cache, InvalidateDropsDirtyBit)
{
    SetAssocCache cache(smallCache(128, 2));
    cache.access(10, true);  // dirty
    EXPECT_TRUE(cache.invalidate(10));
    EXPECT_FALSE(cache.probe(10));
    EXPECT_FALSE(cache.invalidate(10));  // already gone
    cache.access(10, false);             // clean refill
    cache.access(11, false);
    const auto result = cache.access(12, false);  // evicts 10
    EXPECT_TRUE(result.evictedValid);
    EXPECT_FALSE(result.evictedDirty);
}

/** probe() must not touch recency: probing the LRU way over and over
 *  must not save it from eviction. */
TEST(Cache, ProbeDoesNotPerturbLru)
{
    SetAssocCache cache(smallCache(128, 2));
    cache.access(10, false);
    cache.access(11, false);  // recency 10 < 11
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(cache.probe(10));
    EXPECT_EQ(cache.access(12, false).evictedLine, 10u);
}

/** insertAbsent() must be indistinguishable from access(line, false)
 *  on a line that is not resident — same victims, same recency, same
 *  dirty reporting — through fill, eviction and reuse. */
TEST(Cache, InsertAbsentMatchesAccessHistory)
{
    SetAssocCache fast(smallCache(256, 4));  // one set, four ways
    SetAssocCache ref(smallCache(256, 4));
    for (Addr line = 0; line < 4; ++line) {
        const auto a = fast.insertAbsent(line);
        const auto b = ref.access(line, false);
        EXPECT_EQ(a.evictedValid, b.evictedValid) << "line " << line;
    }
    // Full set: both caches must pick the same LRU victims from here.
    for (Addr line = 4; line < 12; ++line) {
        const auto a = fast.insertAbsent(line);
        const auto b = ref.access(line, false);
        EXPECT_TRUE(a.evictedValid);
        EXPECT_EQ(a.evictedLine, b.evictedLine) << "line " << line;
        EXPECT_EQ(a.evictedDirty, b.evictedDirty) << "line " << line;
    }
}

/** Invalidating the newest prefix way shortens the fill prefix; the
 *  freed way must be reused by the next absent insert. */
TEST(Cache, InsertAbsentReusesInvalidatedTail)
{
    SetAssocCache cache(smallCache(256, 4));
    cache.insertAbsent(0);
    cache.insertAbsent(1);
    EXPECT_TRUE(cache.invalidate(1));  // drop the newest way
    cache.insertAbsent(2);             // must land in the freed way
    cache.insertAbsent(3);
    cache.insertAbsent(4);             // fills the set (0,2,3,4)
    // A fifth distinct line must evict, not silently overwrite.
    EXPECT_TRUE(cache.insertAbsent(5).evictedValid);
    EXPECT_TRUE(cache.probe(5));
}

/** A hole punched into the middle of the fill prefix must be found
 *  and reused before any valid way is evicted. */
TEST(Cache, InsertAbsentFillsMidPrefixHole)
{
    SetAssocCache cache(smallCache(256, 4));
    for (Addr line = 0; line < 3; ++line)
        cache.insertAbsent(line);
    EXPECT_TRUE(cache.invalidate(0));  // hole below ways 1 and 2
    EXPECT_FALSE(cache.insertAbsent(10).evictedValid);
    EXPECT_FALSE(cache.insertAbsent(11).evictedValid);
    // Now genuinely full: 1, 2, 10, 11 all resident.
    for (Addr line : {1, 2, 10, 11})
        EXPECT_TRUE(cache.probe(line)) << "line " << line;
    EXPECT_TRUE(cache.insertAbsent(12).evictedValid);
}

/** Mixed access()/insertAbsent()/invalidate() histories agree with a
 *  pure access() reference on every observable outcome. */
TEST(Cache, InsertAbsentMixedHistoryEquivalence)
{
    SetAssocCache fast(smallCache(512, 2));  // 4 sets x 2 ways
    SetAssocCache ref(smallCache(512, 2));
    std::uint64_t x = 12345;
    for (int i = 0; i < 20'000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const Addr line = (x >> 33) % 24;
        const int op = static_cast<int>((x >> 29) & 7);
        if (op < 4) {
            const bool write = (x >> 27 & 1) != 0;
            const auto a = fast.access(line, write);
            const auto b = ref.access(line, write);
            ASSERT_EQ(a.hit, b.hit) << "step " << i;
            ASSERT_EQ(a.evictedValid, b.evictedValid) << "step " << i;
            ASSERT_EQ(a.evictedDirty, b.evictedDirty) << "step " << i;
        } else if (op < 6) {
            // insertAbsent is only legal on absent lines.
            if (!fast.probe(line)) {
                const auto a = fast.insertAbsent(line);
                const auto b = ref.access(line, false);
                ASSERT_EQ(a.evictedValid, b.evictedValid)
                    << "step " << i;
                ASSERT_EQ(a.evictedDirty, b.evictedDirty)
                    << "step " << i;
                ASSERT_EQ(a.evictedLine, b.evictedLine)
                    << "step " << i;
            }
        } else if (op < 7) {
            ASSERT_EQ(fast.invalidate(line), ref.invalidate(line))
                << "step " << i;
        } else {
            ASSERT_EQ(fast.probe(line), ref.probe(line))
                << "step " << i;
        }
    }
}

} // namespace
} // namespace smite::sim
