/**
 * @file
 * Tests for sensitivity curves, sparse interpolation and the Lab's
 * single-Ruler measurement behind every curve point.
 */

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/sensitivity_curve.h"
#include "workload/generator.h"
#include "workload/spec2006.h"

namespace smite::core {
namespace {

SensitivityCurve
linearCurve()
{
    return SensitivityCurve({{0.0, 0.0},
                             {0.5, 0.25},
                             {1.0, 0.5}});
}

TEST(SensitivityCurve, ValidatesInput)
{
    EXPECT_THROW(SensitivityCurve({{0.0, 0.0}}),
                 std::invalid_argument);
    EXPECT_THROW(SensitivityCurve({{1.0, 0.0}, {1.0, 0.1}}),
                 std::invalid_argument);
    EXPECT_THROW(SensitivityCurve({{2.0, 0.0}, {1.0, 0.1}}),
                 std::invalid_argument);
}

TEST(SensitivityCurve, InterpolatesLinearly)
{
    const SensitivityCurve curve = linearCurve();
    EXPECT_NEAR(curve.at(0.25), 0.125, 1e-12);
    EXPECT_NEAR(curve.at(0.75), 0.375, 1e-12);
}

TEST(SensitivityCurve, ClampsOutsideRange)
{
    const SensitivityCurve curve = linearCurve();
    EXPECT_EQ(curve.at(-1.0), 0.0);
    EXPECT_EQ(curve.at(2.0), 0.5);
}

TEST(SensitivityCurve, SparsifiedKeepsEndpoints)
{
    const SensitivityCurve curve({{0.0, 0.0},
                                  {0.25, 0.3},
                                  {0.5, 0.35},
                                  {0.75, 0.4},
                                  {1.0, 0.5}});
    const SensitivityCurve sparse = curve.sparsified(2);
    ASSERT_EQ(sparse.points().size(), 2u);
    EXPECT_EQ(sparse.points().front().intensity, 0.0);
    EXPECT_EQ(sparse.points().back().intensity, 1.0);
    EXPECT_THROW(curve.sparsified(1), std::invalid_argument);
}

TEST(SensitivityCurve, SparsifyOfLinearCurveIsExact)
{
    const SensitivityCurve curve({{0.0, 0.0},
                                  {0.25, 0.1},
                                  {0.5, 0.2},
                                  {0.75, 0.3},
                                  {1.0, 0.4}});
    EXPECT_NEAR(curve.meanAbsoluteError(curve.sparsified(2)), 0.0,
                1e-12);
}

TEST(SensitivityCurve, ErrorDecreasesWithMorePoints)
{
    // A convex curve: 2-point interpolation is worse than 3-point.
    const SensitivityCurve curve({{0.0, 0.0},
                                  {0.25, 0.02},
                                  {0.5, 0.08},
                                  {0.75, 0.2},
                                  {1.0, 0.5}});
    const double err2 = curve.meanAbsoluteError(curve.sparsified(2));
    const double err3 = curve.meanAbsoluteError(curve.sparsified(3));
    EXPECT_LT(err3, err2);
}

TEST(CurveSweep, MemoryCurveIsMonotoneForResidentVictim)
{
    // A bigger ruler working set cannot make an L1-resident victim
    // faster; the measured curve should be (weakly) increasing.
    Lab lab(sim::MachineConfig::ivyBridge(), 10000, 50000);
    const auto &app = workload::spec2006::byName("454.calculix");
    const auto curve = memoryCurve(lab, app, rulers::Dimension::kL1,
                                   {8192, 16384, 32768});
    const auto &pts = curve.points();
    ASSERT_EQ(pts.size(), 3u);
    EXPECT_GE(pts[2].degradation, pts[0].degradation - 0.03);
}

TEST(CurveSweep, FunctionalUnitCurveGrowsWithDuty)
{
    Lab lab(sim::MachineConfig::ivyBridge(), 10000, 50000);
    const auto &app = workload::spec2006::byName("444.namd");
    const auto curve = functionalUnitCurve(
        lab, app, rulers::Dimension::kFpAdd, {0.05, 0.15, 1.0});
    const auto &pts = curve.points();
    EXPECT_GT(pts[2].degradation, pts[0].degradation);
}

TEST(Lab, RulerDegradationUsesLabIntervals)
{
    // Both runs behind a curve point — the co-run and its solo
    // reference — use the Lab's intervals, not the machine defaults.
    constexpr sim::Cycle warmup = 2'000;
    constexpr sim::Cycle measure = 8'000;
    Lab lab(sim::MachineConfig::ivyBridge(), warmup, measure);
    const sim::Machine &machine = lab.machine();
    const auto &app = workload::spec2006::byName("447.dealII");

    workload::ProfileUopSource alone(app, /*seed=*/1);
    const double solo = machine.runSolo(alone, warmup, measure).ipc();
    ASSERT_GT(solo, 0.0);
    const auto expected = [&](const rulers::Ruler &ruler) {
        workload::ProfileUopSource victim(app, /*seed=*/1);
        const auto stressor = ruler.makeSource();
        const double co =
            machine.runPairSmt(victim, *stressor, warmup, measure)[0]
                .ipc();
        return (solo - co) / solo;
    };

    const auto small = rulers::Ruler::memory(rulers::Dimension::kL1, 8192);
    const auto large =
        rulers::Ruler::memory(rulers::Dimension::kL1, 32768);
    const double d_small = lab.rulerDegradation(app, small);
    const double d_large = lab.rulerDegradation(app, large);
    EXPECT_EQ(d_small, expected(small));
    EXPECT_EQ(d_large, expected(large));
    EXPECT_NE(d_small, d_large);
}

} // namespace
} // namespace smite::core
