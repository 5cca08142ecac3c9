/**
 * @file
 * Golden-equivalence suite for the optimized simulator kernels.
 *
 * The flattened cache/TLB arrays and the fast-path core loops (see
 * docs/PERFORMANCE.md) are pure optimizations: they must reproduce the
 * seed model's behavior bit for bit. This file enforces that two ways:
 *
 *  1. Reference-model fuzzing: ReferenceSetAssocCache / ReferenceTlb
 *     below are literal ports of the seed (pre-flattening) algorithms.
 *     Long randomized access/probe/invalidate traces over many
 *     geometries must produce identical outcomes from both models.
 *
 *  2. End-to-end goldens: full Machine::run scenarios whose complete
 *     CounterBlocks were captured from the seed-behavior build and
 *     hard-coded here. Any divergence — one extra TLB miss, one
 *     different LRU victim — shifts these counters and fails the test,
 *     so byte-identical counters imply identical fig/table outputs.
 *
 * Regenerating the goldens (only when *intentionally* changing model
 * semantics): run with SMITE_DUMP_GOLDEN=1 and paste the printed
 * scenario arrays over the kGolden table below. Then bump the
 * replay-log version (sim::kRunLogVersion in src/sim/replay.h), so
 * run logs recorded by the old model are discarded:
 * GoldenMachine.GoldensPinReplayLogVersion fails with "bump the
 * replay-log version" until you do, and then prints the new pin.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "fault/keyed.h"
#include "rulers/ruler.h"
#include "sim/cache.h"
#include "sim/context.h"
#include "sim/machine.h"
#include "sim/replay.h"
#include "sim/tlb.h"
#include "workload/generator.h"
#include "workload/rng.h"
#include "workload/spec2006.h"

namespace smite::sim {
namespace {

// ===================================================================
// Reference models: the seed implementations, kept verbatim.
// ===================================================================

/** Seed-behavior set-associative LRU cache (array-of-structs). */
class ReferenceSetAssocCache
{
  public:
    explicit ReferenceSetAssocCache(const CacheConfig &config)
        : config_(config)
    {
        const std::uint64_t lines = config.sizeBytes / kLineBytes;
        numSets_ = lines / config.assoc;
        lines_.resize(lines);
    }

    SetAssocCache::AccessResult
    access(Addr line, bool write)
    {
        SetAssocCache::AccessResult result;
        const std::uint64_t set = line % numSets_;
        Line *base = &lines_[set * config_.assoc];
        ++useClock_;

        Line *victim = base;
        for (int w = 0; w < config_.assoc; ++w) {
            Line &entry = base[w];
            if (entry.tag == line) {
                entry.lastUse = useClock_;
                entry.dirty = entry.dirty || write;
                result.hit = true;
                return result;
            }
            if (entry.tag == kNoTag) {
                if (victim->tag != kNoTag ||
                    victim->lastUse > entry.lastUse)
                    victim = &entry;
            } else if (victim->tag != kNoTag &&
                       entry.lastUse < victim->lastUse) {
                victim = &entry;
            }
        }

        if (victim->tag != kNoTag) {
            result.evictedValid = true;
            result.evictedDirty = victim->dirty;
            result.evictedLine = victim->tag;
        }
        victim->tag = line;
        victim->lastUse = useClock_;
        victim->dirty = write;
        return result;
    }

    bool
    probe(Addr line) const
    {
        const std::uint64_t set = line % numSets_;
        const Line *base = &lines_[set * config_.assoc];
        for (int w = 0; w < config_.assoc; ++w) {
            if (base[w].tag == line)
                return true;
        }
        return false;
    }

    bool
    invalidate(Addr line)
    {
        const std::uint64_t set = line % numSets_;
        Line *base = &lines_[set * config_.assoc];
        for (int w = 0; w < config_.assoc; ++w) {
            if (base[w].tag == line) {
                base[w] = Line{};
                return true;
            }
        }
        return false;
    }

  private:
    struct Line {
        Addr tag = ~Addr{0};
        std::uint64_t lastUse = 0;
        bool dirty = false;
    };
    static constexpr Addr kNoTag = ~Addr{0};

    CacheConfig config_;
    std::uint64_t numSets_;
    std::uint64_t useClock_ = 0;
    std::vector<Line> lines_;
};

/** Seed-behavior fully-associative LRU TLB (linear scan). */
class ReferenceTlb
{
  public:
    explicit ReferenceTlb(const TlbConfig &config)
        : entries_(config.entries)
    {}

    bool
    access(Addr page)
    {
        ++useClock_;
        Entry *victim = &entries_[0];
        for (Entry &entry : entries_) {
            if (entry.page == page) {
                entry.lastUse = useClock_;
                return true;
            }
            if (entry.lastUse < victim->lastUse)
                victim = &entry;
        }
        victim->page = page;
        victim->lastUse = useClock_;
        return false;
    }

  private:
    struct Entry {
        Addr page = ~Addr{0};
        std::uint64_t lastUse = 0;
    };
    std::uint64_t useClock_ = 0;
    std::vector<Entry> entries_;
};

// ===================================================================
// Fuzz equivalence: optimized vs reference under random traces.
// ===================================================================

struct CacheGeometry {
    std::uint64_t sizeBytes;
    int assoc;
};

class CacheEquivalence : public ::testing::TestWithParam<CacheGeometry>
{
};

TEST_P(CacheEquivalence, RandomTraceMatchesReference)
{
    const auto [size, assoc] = GetParam();
    CacheConfig config;
    config.sizeBytes = size;
    config.assoc = assoc;
    SetAssocCache fast(config);
    ReferenceSetAssocCache ref(config);
    ASSERT_EQ(fast.numSets(), size / kLineBytes / assoc);

    // Address pool ~2x capacity so hits, misses, clean and dirty
    // evictions all occur; sprinkle probes and invalidates.
    const std::uint64_t lines = 2 * size / kLineBytes + 7;
    workload::Rng rng(0xC0FFEE ^ size ^ assoc);
    for (int i = 0; i < 60'000; ++i) {
        const Addr line = rng.nextBelow(lines);
        const int op = static_cast<int>(rng.nextBelow(15));
        if (op < 12) {
            const bool write = rng.nextBelow(4) == 0;
            const auto a = fast.access(line, write);
            const auto b = ref.access(line, write);
            ASSERT_EQ(a.hit, b.hit) << "step " << i;
            ASSERT_EQ(a.evictedValid, b.evictedValid) << "step " << i;
            ASSERT_EQ(a.evictedDirty, b.evictedDirty) << "step " << i;
            if (a.evictedValid) {
                ASSERT_EQ(a.evictedLine, b.evictedLine) << "step " << i;
            }
        } else if (op < 14) {
            ASSERT_EQ(fast.probe(line), ref.probe(line)) << "step " << i;
        } else {
            ASSERT_EQ(fast.invalidate(line), ref.invalidate(line))
                << "step " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheEquivalence,
    ::testing::Values(CacheGeometry{1024, 1},      // direct-mapped
                      CacheGeometry{4096, 2},
                      CacheGeometry{8192, 4},
                      CacheGeometry{32 * 1024, 8},
                      CacheGeometry{64 * 1024, 16},
                      // Non-power-of-two sets and ways (the L3 of the
                      // Sandy Bridge-EN preset is 20-way, 12288 sets).
                      CacheGeometry{192 * 64, 4},  // 48 sets
                      CacheGeometry{15 * 64 * 20, 20}));  // 15 sets

class TlbEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(TlbEquivalence, RandomTraceMatchesReference)
{
    TlbConfig config;
    config.entries = GetParam();
    Tlb fast(config);
    ReferenceTlb ref(config);

    // Phase between a small hot page set (mostly hits) and a wide
    // range (capacity churn) so LRU order and victim choice are both
    // exercised.
    workload::Rng rng(0xBADF00D + config.entries);
    for (int i = 0; i < 120'000; ++i) {
        const bool hot = rng.nextBelow(3) != 0;
        const std::uint64_t span =
            hot ? static_cast<std::uint64_t>(config.entries) / 2 + 1
                : static_cast<std::uint64_t>(config.entries) * 3 + 11;
        const Addr page = rng.nextBelow(span);
        ASSERT_EQ(fast.access(page), ref.access(page)) << "step " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlbEquivalence,
                         ::testing::Values(1, 2, 7, 64, 128, 512));

// ===================================================================
// End-to-end goldens: seed-captured CounterBlocks, bit for bit.
// ===================================================================

/** CounterBlock flattened to a fixed field order for comparison. */
constexpr int kNumFields = 23;

std::array<std::uint64_t, kNumFields>
flatten(const CounterBlock &c)
{
    return {c.cycles,       c.uops,           c.portIssued[0],
            c.portIssued[1], c.portIssued[2], c.portIssued[3],
            c.portIssued[4], c.portIssued[5], c.loads,
            c.stores,        c.branches,      c.branchMispredicts,
            c.l1dHits,       c.l1dMisses,     c.l2Hits,
            c.l2Misses,      c.l3Hits,        c.l3Misses,
            c.icacheMisses,  c.itlbMisses,    c.dtlbLoadMisses,
            c.dtlbStoreMisses, c.fetchStallCycles};
}

constexpr const char *kFieldNames[kNumFields] = {
    "cycles",       "uops",         "port0",     "port1",
    "port2",        "port3",        "port4",     "port5",
    "loads",        "stores",       "branches",  "branchMispredicts",
    "l1dHits",      "l1dMisses",    "l2Hits",    "l2Misses",
    "l3Hits",       "l3Misses",     "icacheMisses", "itlbMisses",
    "dtlbLoadMisses", "dtlbStoreMisses", "fetchStallCycles"};

struct GoldenScenario {
    const char *name;
    std::vector<std::vector<std::uint64_t>> expected;  // per placement
};

/** Machine + placements of scenario @p index; appends run results. */
std::vector<CounterBlock>
runScenario(int index)
{
    constexpr Cycle kWarmup = 3'000;
    constexpr Cycle kMeasure = 12'000;
    const auto src = [](const char *name) {
        return workload::ProfileUopSource(
            workload::spec2006::byName(name));
    };
    switch (index) {
      case 0: {  // solo, power-of-two geometry everywhere
        const Machine machine(MachineConfig::ivyBridge());
        auto a = src("456.hmmer");
        return {machine.runSolo(a, kWarmup, kMeasure)};
      }
      case 1: {  // SMT pair: shared L1/L2 contention
        const Machine machine(MachineConfig::ivyBridge());
        auto a = src("456.hmmer");
        auto b = src("470.lbm");
        return machine.runPairSmt(a, b, kWarmup, kMeasure);
      }
      case 2: {  // CMP pair: shared L3/DRAM only
        const Machine machine(MachineConfig::ivyBridge());
        auto a = src("429.mcf");
        auto b = src("462.libquantum");
        return machine.runPairCmp(a, b, kWarmup, kMeasure);
      }
      case 3: {  // inclusive L3 + L2 prefetch: invalidate()/probe() hot
        MachineConfig config = MachineConfig::ivyBridge();
        config.inclusiveL3 = true;
        config.l2NextLinePrefetch = true;
        const Machine machine(config);
        auto a = src("470.lbm");
        auto b = src("482.sphinx3");
        return machine.runPairSmt(a, b, kWarmup, kMeasure);
      }
      case 4: {  // Sandy Bridge-EN: non-power-of-two L3 sets/ways,
                 // four placements over two cores
        const Machine machine(MachineConfig::sandyBridgeEN());
        auto a = src("456.hmmer");
        auto b = src("470.lbm");
        auto c = src("401.bzip2");
        auto d = src("429.mcf");
        return machine.run({Placement{0, 0, &a}, Placement{0, 1, &b},
                            Placement{1, 0, &c}, Placement{1, 1, &d}},
                           kWarmup, kMeasure);
      }
      case 5: {  // multi-core CMP: four cores, one context each — the
                 // shape where per-core wake times matter most (cores
                 // sharing only L3/DRAM are rarely simultaneously idle)
        const Machine machine(MachineConfig::ivyBridge());
        auto a = src("456.hmmer");
        auto b = src("470.lbm");
        auto c = src("429.mcf");
        auto d = src("462.libquantum");
        return machine.run({Placement{0, 0, &a}, Placement{1, 0, &b},
                            Placement{2, 0, &c}, Placement{3, 0, &d}},
                           kWarmup, kMeasure);
      }
      case 6: {  // 4-context SMT: one core, four hardware threads
                 // (Navarro-style wide SMT; exercises the shared
                 // fetch/issue arbitration rotation beyond 2 ways)
        MachineConfig config = MachineConfig::ivyBridge();
        config.contextsPerCore = 4;
        const Machine machine(config);
        auto a = src("456.hmmer");
        auto b = src("470.lbm");
        auto c = src("403.gcc");
        auto d = src("433.milc");
        return machine.run({Placement{0, 0, &a}, Placement{0, 1, &b},
                            Placement{0, 2, &c}, Placement{0, 3, &d}},
                           kWarmup, kMeasure);
      }
      default:
        throw std::logic_error("unknown scenario");
    }
}

constexpr int kNumScenarios = 7;

/**
 * Seed-captured goldens. Captured from the pre-optimization model at
 * commit d3f58f5 with SMITE_DUMP_GOLDEN=1; the optimized kernels must
 * reproduce them exactly.
 */
const std::vector<GoldenScenario> &
goldens()
{
    static const std::vector<GoldenScenario> kGolden = {
        {"ivy_solo_hmmer",
         {{12000, 14541, 1604, 924, 2236, 944, 1378, 2845, 3180, 1378, 865, 3, 4337, 221, 0, 434, 259, 175, 213, 6, 12, 3, 6362}}},
        {"ivy_smt_hmmer_lbm",
         {{12000, 14013, 1500, 846, 2050, 909, 1308, 2691, 2959, 1308, 807, 4, 3740, 527, 286, 431, 232, 199, 190, 5, 11, 3, 5334},
          {12000, 7622, 1087, 2539, 1259, 621, 982, 647, 1880, 982, 71, 1, 2146, 716, 12, 720, 117, 603, 16, 1, 230, 102, 332}}},
        {"ivy_cmp_mcf_libquantum",
         {{12000, 3147, 189, 38, 511, 291, 216, 792, 802, 216, 367, 12, 164, 854, 23, 860, 235, 625, 29, 0, 561, 158, 2183},
          {12000, 6954, 866, 463, 1298, 698, 1050, 1727, 1996, 1050, 880, 6, 2447, 599, 0, 689, 151, 538, 90, 2, 136, 68, 2741}}},
        {"ivy_inclusive_prefetch_lbm_sphinx3",
         {{12000, 8769, 1256, 2849, 1480, 678, 1145, 796, 2158, 1145, 78, 1, 2474, 829, 372, 473, 180, 293, 16, 1, 252, 127, 429},
          {12000, 11950, 1802, 2561, 1779, 803, 622, 1803, 2582, 622, 503, 7, 1582, 1622, 447, 1191, 984, 207, 16, 1, 179, 54, 855}}},
        {"sandy_quad_hmmer_lbm_bzip2_mcf",
         {{12000, 14071, 1538, 866, 2106, 938, 1314, 2728, 3044, 1314, 816, 3, 3826, 532, 333, 391, 197, 194, 192, 5, 11, 3, 5328},
          {12000, 8199, 1176, 2695, 1335, 681, 1050, 701, 2016, 1050, 78, 1, 2297, 769, 14, 771, 118, 653, 16, 1, 240, 115, 430},
          {12000, 8058, 1242, 664, 1446, 717, 751, 2083, 2163, 751, 1138, 40, 1970, 944, 451, 565, 72, 493, 72, 2, 90, 29, 2967},
          {12000, 4715, 312, 79, 777, 415, 294, 1148, 1192, 294, 588, 28, 179, 1307, 117, 1242, 635, 607, 52, 1, 843, 198, 2282}}},
        {"ivy_cmp_quad_4core",
         {{12000, 4517, 452, 245, 661, 286, 395, 900, 947, 395, 234, 1, 1073, 269, 0, 333, 64, 269, 64, 2, 8, 2, 1906},
          {12000, 3530, 485, 1207, 635, 318, 478, 295, 953, 478, 33, 0, 1080, 351, 0, 351, 51, 300, 0, 0, 116, 45, 0},
          {12000, 1329, 82, 13, 238, 135, 100, 389, 373, 100, 161, 3, 58, 415, 2, 445, 87, 358, 32, 1, 266, 77, 1566},
          {12000, 3824, 418, 220, 684, 345, 565, 895, 1029, 565, 444, 4, 1299, 295, 0, 359, 85, 274, 64, 1, 68, 29, 1912}}},
        {"ivy_smt4_quad",
         {{12000, 3832, 400, 212, 545, 254, 339, 755, 799, 339, 198, 1, 578, 560, 294, 330, 65, 265, 64, 2, 6, 2, 1795},
          {12000, 3201, 438, 1074, 563, 307, 438, 270, 870, 438, 33, 0, 978, 330, 3, 327, 13, 314, 0, 0, 111, 45, 0},
          {12000, 2584, 301, 138, 426, 235, 285, 756, 661, 285, 449, 13, 433, 513, 202, 366, 59, 307, 55, 2, 40, 14, 1972},
          {12000, 3257, 521, 599, 463, 292, 256, 423, 755, 256, 90, 0, 523, 488, 50, 438, 140, 298, 0, 0, 201, 69, 0}}},
    };
    return kGolden;
}

/**
 * Compare @p count scenarios of @p run against @p golden or, with
 * SMITE_DUMP_GOLDEN set, print them as golden table source instead.
 */
template <typename Run>
void
checkGoldens(const std::vector<GoldenScenario> &golden, int count,
             const Run &run)
{
    if (std::getenv("SMITE_DUMP_GOLDEN") != nullptr) {
        // Regeneration mode: print the golden table source.
        for (int s = 0; s < count; ++s) {
            const auto results = run(s);
            std::printf("        {\"scenario_%d\",\n         {", s);
            for (size_t p = 0; p < results.size(); ++p) {
                const auto flat = flatten(results[p]);
                std::printf("{");
                for (int f = 0; f < kNumFields; ++f)
                    std::printf("%llu%s",
                                static_cast<unsigned long long>(flat[f]),
                                f + 1 < kNumFields ? ", " : "");
                std::printf("}%s", p + 1 < results.size() ? ",\n          "
                                                          : "");
            }
            std::printf("}},\n");
        }
        GTEST_SKIP() << "golden dump mode; no comparison performed";
    }

    ASSERT_EQ(golden.size(), static_cast<size_t>(count));
    for (int s = 0; s < count; ++s) {
        SCOPED_TRACE(golden[s].name);
        const auto results = run(s);
        ASSERT_EQ(results.size(), golden[s].expected.size());
        for (size_t p = 0; p < results.size(); ++p) {
            const auto flat = flatten(results[p]);
            ASSERT_EQ(golden[s].expected[p].size(),
                      static_cast<size_t>(kNumFields));
            for (int f = 0; f < kNumFields; ++f) {
                EXPECT_EQ(flat[f], golden[s].expected[p][f])
                    << "placement " << p << " field " << kFieldNames[f];
            }
        }
    }
}

TEST(GoldenMachine, CountersMatchSeedBehavior)
{
    checkGoldens(goldens(), kNumScenarios, runScenario);
}

// ===================================================================
// Port-saturated shapes: Ruler co-runs.
// ===================================================================

/**
 * SMT pair of Ruler-or-profile streams for shape @p index on preset
 * @p sandy. The goldens above run SPEC profiles only; these are the
 * shapes where a saturating FU Ruler keeps dozens of ready same-port
 * uops in scheduler depth, which the issue scan's port-saturation
 * filter skips (docs/PERFORMANCE.md): each FU Ruler at duty 1.0 on
 * the sibling of a SPEC profile, two same-port Rulers, the INT_ADD
 * Ruler next to 403.gcc and the L1 Ruler next to 429.mcf.
 */
std::vector<CounterBlock>
runRulerShape(int index, bool sandy)
{
    using rulers::Dimension;
    using rulers::Ruler;
    constexpr Cycle kWarmup = 3'000;
    constexpr Cycle kMeasure = 12'000;
    const MachineConfig config = sandy ? MachineConfig::sandyBridgeEN()
                                       : MachineConfig::ivyBridge();
    const Machine machine(config);
    const auto pair = [&](const char *app, const Ruler &ruler) {
        workload::ProfileUopSource a(workload::spec2006::byName(app));
        const auto r = ruler.makeSource();
        return machine.runPairSmt(a, *r, kWarmup, kMeasure);
    };
    switch (index) {
      case 0:
        return pair("454.calculix", Ruler::functionalUnit(Dimension::kFpMul));
      case 1:
        return pair("470.lbm", Ruler::functionalUnit(Dimension::kFpAdd));
      case 2:
        return pair("453.povray", Ruler::functionalUnit(Dimension::kFpShf));
      case 3:
        return pair("456.hmmer", Ruler::functionalUnit(Dimension::kIntAdd));
      case 4: {  // two FP_ADD Rulers: port 1 oversubscribed both ways
        const Ruler ruler = Ruler::functionalUnit(Dimension::kFpAdd);
        const auto a = ruler.makeSource();
        const auto b = ruler.makeSource();
        return machine.runPairSmt(*a, *b, kWarmup, kMeasure);
      }
      case 5:
        return pair("403.gcc", Ruler::functionalUnit(Dimension::kIntAdd));
      case 6:
        return pair("429.mcf",
                    Ruler::memory(Dimension::kL1, config.l1d.sizeBytes));
      default:
        throw std::logic_error("unknown Ruler shape");
    }
}

constexpr int kNumRulerShapes = 7;

/**
 * Counters of runRulerShape(s, false) for s < 7, then of
 * runRulerShape(s - 7, true): recorded before the port-saturation
 * filter and the O(1) depth cutoff existed. Apart from goldens(), so
 * the replay-log version pin covers the seed shapes only.
 */
const std::vector<GoldenScenario> &
rulerGoldens()
{
    static const std::vector<GoldenScenario> kGolden = {
        {"ivy_fpmul_ruler_calculix",
         {{12000, 20672, 5842, 5460, 3232, 649, 890, 2722, 3881, 890, 806, 9, 4701, 70, 0, 86, 86, 0, 16, 1, 18, 2, 730},
          {12000, 6158, 6158, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {"ivy_fpadd_ruler_lbm",
         {{12000, 8491, 1210, 2711, 1411, 683, 1108, 807, 2094, 1108, 74, 1, 2409, 793, 6, 803, 181, 622, 16, 1, 244, 125, 494},
          {12000, 9289, 0, 9289, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {"ivy_fpshf_ruler_povray",
         {{12000, 32990, 7401, 7211, 5022, 1360, 1993, 5437, 6382, 1993, 2620, 50, 8264, 111, 2, 125, 125, 0, 16, 1, 36, 7, 2318},
          {12000, 6563, 0, 0, 0, 0, 0, 6563, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {"ivy_intadd_ruler_hmmer",
         {{12000, 13864, 1625, 1102, 2134, 821, 1302, 2302, 2955, 1302, 805, 3, 4041, 216, 0, 397, 223, 174, 181, 5, 10, 3, 5406},
          {12000, 30854, 10344, 10819, 0, 0, 0, 9691, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {"ivy_two_fpadd_rulers",
         {{12000, 6000, 0, 6000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
          {12000, 6000, 0, 6000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {"ivy_intadd_ruler_gcc",
         {{12000, 8045, 917, 473, 1258, 535, 705, 1779, 1793, 705, 1226, 34, 1989, 509, 58, 599, 196, 403, 148, 5, 90, 39, 5103},
          {12000, 32775, 11074, 11483, 0, 0, 0, 10218, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {"ivy_l1_ruler_mcf",
         {{12000, 3660, 276, 68, 556, 366, 241, 824, 922, 241, 428, 15, 149, 1014, 65, 981, 337, 644, 32, 1, 649, 175, 1715},
          {12000, 7906, 1671, 1234, 1121, 6, 1136, 2738, 1127, 1136, 0, 0, 1630, 633, 297, 336, 0, 336, 0, 0, 0, 0, 0}}},
        {"sandy_fpmul_ruler_calculix",
         {{12000, 20672, 5842, 5460, 3232, 649, 890, 2722, 3881, 890, 806, 9, 4701, 70, 0, 86, 86, 0, 16, 1, 18, 2, 730},
          {12000, 6158, 6158, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {"sandy_fpadd_ruler_lbm",
         {{12000, 8856, 1276, 2832, 1485, 701, 1154, 842, 2186, 1154, 82, 1, 2517, 823, 6, 833, 183, 650, 16, 1, 253, 129, 494},
          {12000, 9168, 0, 9168, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {"sandy_fpshf_ruler_povray",
         {{12000, 32990, 7401, 7211, 5022, 1360, 1993, 5437, 6382, 1993, 2620, 50, 8264, 111, 2, 125, 125, 0, 16, 1, 36, 7, 2318},
          {12000, 6563, 0, 0, 0, 0, 0, 6563, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {"sandy_intadd_ruler_hmmer",
         {{12000, 16884, 2180, 1637, 2858, 1165, 1750, 2850, 4023, 1750, 1078, 6, 5636, 137, 0, 351, 351, 0, 214, 5, 14, 3, 6448},
          {12000, 29228, 9794, 10292, 0, 0, 0, 9142, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {"sandy_two_fpadd_rulers",
         {{12000, 6000, 0, 6000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
          {12000, 6000, 0, 6000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {"sandy_intadd_ruler_gcc",
         {{12000, 9272, 1061, 509, 1425, 580, 793, 1972, 2005, 793, 1387, 39, 2244, 554, 74, 630, 331, 299, 150, 5, 102, 44, 5226},
          {12000, 32394, 10925, 11444, 0, 0, 0, 10025, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {"sandy_l1_ruler_mcf",
         {{12000, 5843, 484, 128, 987, 584, 366, 1356, 1571, 366, 743, 37, 235, 1702, 164, 1570, 1138, 432, 32, 1, 1109, 248, 1627},
          {12000, 10094, 2364, 1657, 1395, 43, 1452, 3183, 1438, 1452, 0, 0, 1995, 895, 588, 307, 0, 307, 0, 0, 0, 0, 0}}},
    };
    return kGolden;
}

TEST(GoldenMachine, PortSaturatedRulerShapesMatchRecordedCounters)
{
    checkGoldens(rulerGoldens(), 2 * kNumRulerShapes, [](int s) {
        return runRulerShape(s % kNumRulerShapes, s >= kNumRulerShapes);
    });
}

/**
 * Run logs persist outcomes under keys that cannot see simulator
 * behaviour, so a change to the goldens needs a new log version. The
 * pin pairs the version with a digest of the kGolden counters.
 */
TEST(GoldenMachine, GoldensPinReplayLogVersion)
{
    constexpr std::string_view kPinnedVersion = "smite-replay v1";
    constexpr std::uint64_t kPinnedDigest = 0xe4ded48bf11f5499ull;

    fault::Digest digest;
    for (const GoldenScenario &scenario : goldens()) {
        for (const auto &placement : scenario.expected) {
            for (const std::uint64_t value : placement)
                digest.u64(value);
        }
    }
    if (digest.value() != kPinnedDigest) {
        EXPECT_NE(std::string_view(kRunLogVersion), kPinnedVersion)
            << "the golden counters changed: bump the replay-log "
               "version (sim::kRunLogVersion)";
        ADD_FAILURE() << "re-pin kPinnedVersion = \"" << kRunLogVersion
                      << "\" and kPinnedDigest = 0x" << std::hex
                      << digest.value();
    }
    EXPECT_EQ(std::string_view(kRunLogVersion), kPinnedVersion)
        << "re-pin kPinnedVersion together with kPinnedDigest";
}

// ===================================================================
// Event-driven vs. reference per-tick execution: randomized shapes.
// ===================================================================

/**
 * The event-driven machine loop (per-core wake times, bulk idle
 * accounting) claims byte-identity with ticking every live core every
 * cycle. The golden pins above check fixed shapes; this suite draws
 * random machine shapes, workload mixes and (short) interval lengths,
 * runs each placement set through both execution modes, and requires
 * every counter of every placement to match exactly.
 */
TEST(EventDrivenEquivalence, RandomShapesMatchPerTickReference)
{
    const auto &pool = workload::spec2006::all();
    workload::Rng rng(0xE4E2'72024ull);

    constexpr int kTrials = 24;
    for (int t = 0; t < kTrials; ++t) {
        SCOPED_TRACE("trial " + std::to_string(t));

        MachineConfig config = (rng.nextU64() & 1) != 0
                                   ? MachineConfig::ivyBridge()
                                   : MachineConfig::sandyBridgeEN();
        if ((rng.nextU64() & 3) == 0)
            config.contextsPerCore = 4;
        if ((rng.nextU64() & 3) == 0)
            config.inclusiveL3 = true;
        if ((rng.nextU64() & 3) == 0)
            config.l2NextLinePrefetch = true;

        // 1-4 streams over distinct (core, context) slots.
        const int n_streams = 1 + static_cast<int>(rng.nextU64() % 4);
        std::vector<std::pair<int, int>> slots;
        for (int c = 0; c < config.numCores; ++c)
            for (int k = 0; k < config.contextsPerCore; ++k)
                slots.emplace_back(c, k);
        for (size_t i = slots.size(); i > 1; --i)
            std::swap(slots[i - 1], slots[rng.nextU64() % i]);

        std::vector<const workload::WorkloadProfile *> profiles;
        for (int i = 0; i < n_streams; ++i)
            profiles.push_back(&pool[rng.nextU64() % pool.size()]);

        const Cycle warmup = rng.nextU64() % 2'000;
        const Cycle measure = 500 + rng.nextU64() % 4'000;

        // Fresh sources per mode: bind() resets them, but separate
        // objects make the two runs trivially independent.
        const auto run_mode = [&](bool reference) {
            Machine machine(config);
            machine.setReferenceTicking(reference);
            std::vector<workload::ProfileUopSource> sources;
            sources.reserve(profiles.size());
            for (const auto *p : profiles)
                sources.emplace_back(*p);
            std::vector<Placement> placements;
            for (int i = 0; i < n_streams; ++i) {
                placements.push_back(Placement{
                    slots[i].first, slots[i].second, &sources[i]});
            }
            return machine.run(placements, warmup, measure);
        };

        const auto event_driven = run_mode(false);
        const auto reference = run_mode(true);
        ASSERT_EQ(event_driven.size(), reference.size());
        for (size_t p = 0; p < event_driven.size(); ++p) {
            const auto got = flatten(event_driven[p]);
            const auto want = flatten(reference[p]);
            for (int f = 0; f < kNumFields; ++f) {
                EXPECT_EQ(got[f], want[f])
                    << "placement " << p << " field " << kFieldNames[f];
            }
        }
    }
}

/**
 * The issue scan's depth cutoff selects the need-th unissued slot with
 * selectBit(); the loop it replaced cleared the lowest set bit
 * rank times and took the trailing zero count.
 */
TEST(SelectBit, MatchesBitClearingLoop)
{
    workload::Rng rng(0x5E1EC7ull);
    for (int t = 0; t < 4'000; ++t) {
        // Dense, sparse and single-bit words.
        std::uint64_t word = rng.nextU64();
        if (t % 3 == 1)
            word &= rng.nextU64() & rng.nextU64();
        if (t % 3 == 2)
            word = std::uint64_t{1} << (t % 64);
        if (word == 0)
            continue;
        std::uint64_t m = word;
        for (int rank = 0; m != 0; ++rank, m &= m - 1) {
            ASSERT_EQ(selectBit(word, rank), std::countr_zero(m))
                << std::hex << "word 0x" << word << std::dec << " rank "
                << rank;
        }
    }
    EXPECT_EQ(selectBit(~std::uint64_t{0}, 63), 63);
    EXPECT_EQ(selectBit(std::uint64_t{1} << 63, 0), 63);
}

/** Two consecutive runs of the same scenario must be bit-identical. */
TEST(GoldenMachine, RepeatRunsAreIdentical)
{
    const auto first = runScenario(1);
    const auto second = runScenario(1);
    ASSERT_EQ(first.size(), second.size());
    for (size_t p = 0; p < first.size(); ++p)
        EXPECT_EQ(flatten(first[p]), flatten(second[p]));
}

} // namespace
} // namespace smite::sim
