/**
 * @file
 * Tests of the Ruler characterization protocol (Equations 1-2) and
 * the paper's qualitative findings about decoupled sensitivity.
 *
 * These run real (short) simulations, so tolerances are loose; the
 * assertions encode *orderings*, the same way the paper's findings
 * are stated.
 */

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/spec2006.h"

namespace smite::core {
namespace {

/** One shared lab with short windows keeps this suite fast. */
Lab &
lab()
{
    static Lab instance(sim::MachineConfig::ivyBridge(), 20000, 80000);
    return instance;
}

TEST(Characterize, ValuesAreBoundedFractions)
{
    const auto &c = lab().characterization(
        workload::spec2006::byName("450.soplex"), CoLocationMode::kSmt);
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        EXPECT_GT(c.sensitivity[d], -0.15) << "dim " << d;
        EXPECT_LT(c.sensitivity[d], 1.0) << "dim " << d;
        EXPECT_GT(c.contentiousness[d], -0.15) << "dim " << d;
        EXPECT_LT(c.contentiousness[d], 1.0) << "dim " << d;
    }
}

TEST(Characterize, NamdIsPortOneSensitive)
{
    // Paper Finding 2/Figure 2: 444.namd suffers heavily from FP_ADD
    // (port 1) contention but is nearly immune to FP_MUL (port 0).
    const auto &c = lab().characterization(
        workload::spec2006::byName("444.namd"), CoLocationMode::kSmt);
    const int p0 = rulers::dimensionIndex(rulers::Dimension::kFpMul);
    const int p1 = rulers::dimensionIndex(rulers::Dimension::kFpAdd);
    EXPECT_GT(c.sensitivity[p1], 0.2);
    EXPECT_GT(c.sensitivity[p1], 5 * c.sensitivity[p0]);
}

TEST(Characterize, CalculixIsPortZeroContentious)
{
    // Paper Finding 4: 454.calculix is more contentious on port 0
    // than 470.lbm, which leans on port 1.
    const auto &calculix = lab().characterization(
        workload::spec2006::byName("454.calculix"),
        CoLocationMode::kSmt);
    const auto &lbm = lab().characterization(
        workload::spec2006::byName("470.lbm"), CoLocationMode::kSmt);
    const int p0 = rulers::dimensionIndex(rulers::Dimension::kFpMul);
    const int p1 = rulers::dimensionIndex(rulers::Dimension::kFpAdd);
    EXPECT_GT(calculix.contentiousness[p0], lbm.contentiousness[p0]);
    EXPECT_GT(lbm.contentiousness[p1], lbm.contentiousness[p0]);
}

TEST(Characterize, McfIsPortInsensitiveButMemoryActive)
{
    // Paper Figure 2: 429.mcf suffers ~6% from port contention while
    // others suffer up to 70%; its action is in the memory system.
    const auto &c = lab().characterization(
        workload::spec2006::byName("429.mcf"), CoLocationMode::kSmt);
    const int p0 = rulers::dimensionIndex(rulers::Dimension::kFpMul);
    const int p1 = rulers::dimensionIndex(rulers::Dimension::kFpAdd);
    const int l3 = rulers::dimensionIndex(rulers::Dimension::kL3);
    EXPECT_LT(c.sensitivity[p0], 0.05);
    EXPECT_LT(c.sensitivity[p1], 0.05);
    EXPECT_GT(c.contentiousness[l3], 0.1);
}

TEST(Characterize, CmpModeDropsCoreLevelSensitivity)
{
    // On CMP co-location only L3/DRAM are shared: port sensitivity
    // must collapse relative to SMT for a port-bound application.
    const auto &profile = workload::spec2006::byName("444.namd");
    const auto &smt =
        lab().characterization(profile, CoLocationMode::kSmt);
    const auto &cmp =
        lab().characterization(profile, CoLocationMode::kCmp);
    const int p1 = rulers::dimensionIndex(rulers::Dimension::kFpAdd);
    EXPECT_LT(cmp.sensitivity[p1], 0.3 * smt.sensitivity[p1] + 0.02);
}

TEST(Characterize, CachedCharacterizationIsStable)
{
    const auto &profile = workload::spec2006::byName("401.bzip2");
    const Characterization a =
        lab().characterization(profile, CoLocationMode::kSmt);
    const Characterization b =
        lab().characterization(profile, CoLocationMode::kSmt);
    // The second ask replays the first's runs: same values, bit for
    // bit.
    EXPECT_EQ(a.sensitivity, b.sensitivity);
    EXPECT_EQ(a.contentiousness, b.contentiousness);
    EXPECT_EQ(a.valid, b.valid);
}

TEST(Characterize, RejectsBadThreadCounts)
{
    const auto &profile = workload::spec2006::byName("401.bzip2");
    EXPECT_THROW(lab().characterization(profile, CoLocationMode::kSmt, 0),
                 std::invalid_argument);
    EXPECT_THROW(
        lab().characterization(profile, CoLocationMode::kSmt, 99),
        std::invalid_argument);
    // CMP needs twice the cores.
    const int cores = lab().machine().config().numCores;
    EXPECT_THROW(
        lab().characterization(profile, CoLocationMode::kCmp, cores),
        std::invalid_argument);
}

TEST(Lab, PairDegradationSymmetricCaching)
{
    const auto &a = workload::spec2006::byName("401.bzip2");
    const auto &b = workload::spec2006::byName("403.gcc");
    const double d1 = lab().pairDegradation(a, b, CoLocationMode::kSmt);
    const double d2 = lab().pairDegradation(b, a, CoLocationMode::kSmt);
    // Both directions were filled by one run; re-query is consistent.
    EXPECT_EQ(d1, lab().pairDegradation(a, b, CoLocationMode::kSmt));
    EXPECT_EQ(d2, lab().pairDegradation(b, a, CoLocationMode::kSmt));
}

TEST(Lab, ScaleToInstancesIsLinear)
{
    EXPECT_NEAR(Lab::scaleToInstances(0.3, 3, 6), 0.15, 1e-12);
    EXPECT_NEAR(Lab::scaleToInstances(0.3, 6, 6), 0.3, 1e-12);
    EXPECT_THROW(Lab::scaleToInstances(0.3, 1, 0),
                 std::invalid_argument);
}

TEST(Lab, MultiInstanceDegradationGrowsWithInstances)
{
    // More batch instances cannot systematically help the latency
    // app (paper Figure 12's measured bars grow with instances).
    Lab small(sim::MachineConfig::ivyBridge(), 10000, 40000);
    const auto &latency = workload::spec2006::byName("453.povray");
    const auto &batch = workload::spec2006::byName("470.lbm");
    const double d1 = small.multiInstanceDegradation(
        latency, 4, batch, 1, CoLocationMode::kSmt);
    const double d4 = small.multiInstanceDegradation(
        latency, 4, batch, 4, CoLocationMode::kSmt);
    EXPECT_GT(d4, d1 - 0.02);
}

TEST(Lab, MultiInstanceValidatesShapes)
{
    Lab small(sim::MachineConfig::ivyBridge(), 1000, 2000);
    const auto &a = workload::spec2006::byName("453.povray");
    const auto &b = workload::spec2006::byName("470.lbm");
    EXPECT_THROW(small.multiInstanceDegradation(
                     a, 4, b, 5, CoLocationMode::kSmt),
                 std::invalid_argument);
    EXPECT_THROW(small.multiInstanceDegradation(
                     a, 3, b, 2, CoLocationMode::kCmp),
                 std::invalid_argument);
}

} // namespace
} // namespace smite::core
