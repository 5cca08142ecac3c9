/**
 * @file
 * Unit tests for the workload profiles and trace generator.
 */

#include <map>

#include <gtest/gtest.h>

#include "workload/cloudsuite.h"
#include "workload/generator.h"
#include "workload/rng.h"
#include "workload/spec2006.h"

namespace smite::workload {
namespace {

TEST(Rng, DeterministicAndNonConstant)
{
    Rng a(7), b(7), c(8);
    EXPECT_EQ(a.nextU64(), b.nextU64());
    EXPECT_NE(Rng(7).nextU64(), c.nextU64());
}

TEST(Rng, DoublesInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, GeometricMeanRoughlyCorrect)
{
    Rng rng(5);
    const double target = 4.0;
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(target));
    EXPECT_NEAR(sum / n, target, 0.15);
}

TEST(Spec2006, SuiteShape)
{
    const auto &suite = spec2006::all();
    EXPECT_EQ(suite.size(), 29u);
    EXPECT_EQ(spec2006::evenNumbered().size(), 14u);
    EXPECT_EQ(spec2006::oddNumbered().size(), 15u);
}

TEST(Spec2006, SplitIsDisjointAndComplete)
{
    std::map<std::string, int> seen;
    for (const auto &p : spec2006::evenNumbered()) {
        EXPECT_EQ(p.specNumber % 2, 0) << p.name;
        ++seen[p.name];
    }
    for (const auto &p : spec2006::oddNumbered()) {
        EXPECT_EQ(p.specNumber % 2, 1) << p.name;
        ++seen[p.name];
    }
    EXPECT_EQ(seen.size(), 29u);
    for (const auto &[name, count] : seen)
        EXPECT_EQ(count, 1) << name;
}

TEST(Spec2006, LookupByName)
{
    EXPECT_EQ(spec2006::byName("429.mcf").specNumber, 429);
    EXPECT_THROW(spec2006::byName("430.nope"), std::out_of_range);
}

TEST(Spec2006, ProfilesAreWellFormed)
{
    for (const auto &p : spec2006::all()) {
        double sum = 0.0;
        for (double f : p.mix) {
            EXPECT_GE(f, 0.0) << p.name;
            sum += f;
        }
        EXPECT_LE(sum, 1.0 + 1e-9) << p.name;
        EXPECT_GT(sum, 0.5) << p.name;  // mostly real work
        EXPECT_LE(p.hotBytes, p.dataFootprint) << p.name;
        EXPECT_GE(p.branchMispredictRate, 0.0) << p.name;
        EXPECT_LE(p.branchMispredictRate, 0.2) << p.name;
        // Constructing a generator validates the rest.
        EXPECT_NO_THROW(ProfileUopSource{p}) << p.name;
    }
}

TEST(Spec2006, PaperCallouts)
{
    // The paper highlights 444.namd as FP_ADD-heavy (port 1),
    // 454.calculix as FP_MUL-heavy (port 0), 470.lbm as more
    // contentious on port 1 than port 0.
    const auto &namd = spec2006::byName("444.namd");
    EXPECT_GT(namd.mixOf(sim::UopType::kFpAdd),
              2 * namd.mixOf(sim::UopType::kFpMul));
    const auto &calculix = spec2006::byName("454.calculix");
    EXPECT_GT(calculix.mixOf(sim::UopType::kFpMul),
              calculix.mixOf(sim::UopType::kFpAdd));
    const auto &lbm = spec2006::byName("470.lbm");
    EXPECT_GT(lbm.mixOf(sim::UopType::kFpAdd),
              lbm.mixOf(sim::UopType::kFpMul));
    // 429.mcf is memory bound: no FP at all, huge footprint.
    const auto &mcf = spec2006::byName("429.mcf");
    EXPECT_EQ(mcf.mixOf(sim::UopType::kFpAdd), 0.0);
    EXPECT_GT(mcf.dataFootprint, 1000ull << 20);
}

TEST(CloudSuite, FourApplications)
{
    const auto &suite = cloudsuite::all();
    ASSERT_EQ(suite.size(), 4u);
    EXPECT_NO_THROW(cloudsuite::byName("Web-Search"));
    EXPECT_NO_THROW(cloudsuite::byName("Data-Caching"));
    EXPECT_NO_THROW(cloudsuite::byName("Data-Serving"));
    EXPECT_NO_THROW(cloudsuite::byName("Graph-Analytics"));
    EXPECT_THROW(cloudsuite::byName("Map-Reduce"), std::out_of_range);
}

TEST(CloudSuite, PercentileReportingMatchesPaper)
{
    // Web-Search and Data-Caching report percentile latency;
    // Data-Serving and Graph-Analytics do not (paper IV-B3).
    EXPECT_TRUE(cloudsuite::byName("Web-Search").reportsPercentile);
    EXPECT_TRUE(cloudsuite::byName("Data-Caching").reportsPercentile);
    EXPECT_FALSE(cloudsuite::byName("Data-Serving").reportsPercentile);
    EXPECT_FALSE(cloudsuite::byName("Graph-Analytics").reportsPercentile);
}

TEST(CloudSuite, LatencySensitiveAndStableQueues)
{
    for (const auto &p : cloudsuite::all()) {
        EXPECT_TRUE(p.isLatencySensitive()) << p.name;
        EXPECT_LT(p.arrivalRate, p.serviceRate) << p.name;
    }
}

TEST(Generator, DeterministicStream)
{
    const auto &p = spec2006::byName("403.gcc");
    ProfileUopSource a(p, 5), b(p, 5);
    for (int i = 0; i < 5000; ++i) {
        const sim::Uop ua = a.next();
        const sim::Uop ub = b.next();
        ASSERT_EQ(ua.type, ub.type) << "uop " << i;
        ASSERT_EQ(ua.addr, ub.addr) << "uop " << i;
        ASSERT_EQ(ua.pc, ub.pc) << "uop " << i;
        ASSERT_EQ(ua.mispredict, ub.mispredict) << "uop " << i;
    }
}

TEST(Generator, ResetRewindsExactly)
{
    const auto &p = spec2006::byName("433.milc");
    ProfileUopSource src(p, 9);
    std::vector<sim::Uop> first;
    for (int i = 0; i < 2000; ++i)
        first.push_back(src.next());
    src.reset();
    for (int i = 0; i < 2000; ++i) {
        const sim::Uop u = src.next();
        ASSERT_EQ(u.type, first[i].type) << i;
        ASSERT_EQ(u.addr, first[i].addr) << i;
    }
}

TEST(Generator, DifferentSeedsDiffer)
{
    const auto &p = spec2006::byName("433.milc");
    ProfileUopSource a(p, 1), b(p, 2);
    int differing = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next().type != b.next().type)
            ++differing;
    }
    EXPECT_GT(differing, 0);
}

TEST(Generator, MixFractionsApproximatelyRealized)
{
    const auto &p = spec2006::byName("444.namd");
    ProfileUopSource src(p, 1);
    std::array<std::uint64_t, sim::kNumUopTypes> counts{};
    const int n = 400000;
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<int>(src.next().type)];
    // Phase modulation dilutes everything by the same factor; check
    // the FP_ADD : FP_MUL ratio, which phases preserve.
    const double fp_add = counts[static_cast<int>(sim::UopType::kFpAdd)];
    const double fp_mul = counts[static_cast<int>(sim::UopType::kFpMul)];
    EXPECT_NEAR(fp_add / fp_mul,
                p.mixOf(sim::UopType::kFpAdd) /
                    p.mixOf(sim::UopType::kFpMul),
                0.25);
}

TEST(Generator, AddressesWithinFootprint)
{
    const auto &p = spec2006::byName("429.mcf");
    ProfileUopSource src(p, 1);
    for (int i = 0; i < 100000; ++i) {
        const sim::Uop u = src.next();
        if (u.type == sim::UopType::kLoad ||
            u.type == sim::UopType::kStore) {
            EXPECT_LT(u.addr, p.dataFootprint);
        }
        EXPECT_LT(u.pc, p.codeFootprint);
    }
}

TEST(Generator, MispredictRateApproximatelyRealized)
{
    const auto &p = spec2006::byName("445.gobmk");
    ProfileUopSource src(p, 1);
    std::uint64_t branches = 0, mispredicts = 0;
    for (int i = 0; i < 500000; ++i) {
        const sim::Uop u = src.next();
        if (u.type == sim::UopType::kBranch) {
            ++branches;
            mispredicts += u.mispredict ? 1 : 0;
        }
    }
    ASSERT_GT(branches, 0u);
    EXPECT_NEAR(static_cast<double>(mispredicts) / branches,
                p.branchMispredictRate, 0.01);
}

TEST(Generator, RejectsMalformedProfiles)
{
    WorkloadProfile p = spec2006::byName("403.gcc");
    p.mixOf(sim::UopType::kLoad) = 0.9;  // sum > 1
    EXPECT_THROW(ProfileUopSource{p}, std::invalid_argument);

    p = spec2006::byName("403.gcc");
    p.hotBytes = p.dataFootprint + 1;
    EXPECT_THROW(ProfileUopSource{p}, std::invalid_argument);

    p = spec2006::byName("403.gcc");
    p.loopBytes = p.codeFootprint * 2;
    EXPECT_THROW(ProfileUopSource{p}, std::invalid_argument);

    // A hot region smaller than one 8-byte element has nothing to
    // draw from; it is fine only when hot draws never happen.
    p = spec2006::byName("429.mcf");
    ASSERT_GT(p.hotProb, 0.0);
    p.hotBytes = 0;
    EXPECT_THROW(ProfileUopSource{p}, std::invalid_argument);
    p.hotBytes = 7;
    EXPECT_THROW(ProfileUopSource{p}, std::invalid_argument);
    p.hotProb = 0.0;
    ProfileUopSource no_hot(p);
    for (int i = 0; i < 100'000; ++i)
        no_hot.next();
}

TEST(Generator, ResidencyWeightOrdersMemoryIntensity)
{
    // mcf (huge cold footprint) should claim far more shared cache
    // than calculix (L1-resident).
    ProfileUopSource mcf(spec2006::byName("429.mcf"));
    ProfileUopSource calculix(spec2006::byName("454.calculix"));
    EXPECT_GT(mcf.residencyWeight(), 5 * calculix.residencyWeight());
}

} // namespace
} // namespace smite::workload
