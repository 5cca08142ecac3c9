/**
 * @file
 * Unit and property tests for the statistics substrate.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "stats/correlation.h"
#include "stats/regression.h"
#include "stats/summary.h"
#include "workload/rng.h"

namespace smite::stats {
namespace {

TEST(Regression, RecoversExactLinearModel)
{
    // y = 2 x0 - 3 x1 + 5
    std::vector<std::vector<double>> x = {
        {1, 0}, {0, 1}, {1, 1}, {2, 1}, {3, -1}, {0, 0},
    };
    std::vector<double> y;
    for (const auto &row : x)
        y.push_back(2 * row[0] - 3 * row[1] + 5);
    const LinearModel m = LinearModel::fit(x, y);
    EXPECT_NEAR(m.weights()[0], 2.0, 1e-9);
    EXPECT_NEAR(m.weights()[1], -3.0, 1e-9);
    EXPECT_NEAR(m.intercept(), 5.0, 1e-9);
    EXPECT_NEAR(m.predict({10, 10}), 2 * 10 - 3 * 10 + 5, 1e-9);
    EXPECT_NEAR(m.meanAbsoluteError(x, y), 0.0, 1e-9);
}

TEST(Regression, RejectsShapeMismatch)
{
    EXPECT_THROW(LinearModel::fit({{1.0}}, {1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(LinearModel::fit({}, {}), std::invalid_argument);
    EXPECT_THROW(LinearModel::fit({{1.0, 2.0}, {1.0}}, {1.0, 2.0}),
                 std::invalid_argument);
}

TEST(Regression, RejectsDegenerateSystemWithoutRidge)
{
    // Perfectly collinear features, no ridge: singular.
    std::vector<std::vector<double>> x = {
        {1, 2}, {2, 4}, {3, 6}, {4, 8},
    };
    std::vector<double> y = {1, 2, 3, 4};
    EXPECT_THROW(LinearModel::fit(x, y), std::invalid_argument);
    // Ridge regularization makes it solvable.
    EXPECT_NO_THROW(LinearModel::fit(x, y, 1e-6));
}

TEST(Regression, PredictRejectsWrongDimension)
{
    const LinearModel m =
        LinearModel::fit({{1.0}, {2.0}, {3.0}}, {2.0, 4.0, 6.0});
    EXPECT_THROW(m.predict({1.0, 2.0}), std::invalid_argument);
}

TEST(SolveDense, SolvesKnownSystem)
{
    // 2x + y = 5 ; x - y = 1  ->  x = 2, y = 1
    auto sol = solveDense({{2, 1}, {1, -1}}, {5, 1});
    EXPECT_NEAR(sol[0], 2.0, 1e-12);
    EXPECT_NEAR(sol[1], 1.0, 1e-12);
}

TEST(SolveDense, ThrowsOnSingular)
{
    EXPECT_THROW(solveDense({{1, 1}, {2, 2}}, {1, 2}),
                 std::invalid_argument);
}

/** Property: least squares recovers random models from random data. */
class RegressionRecovery : public ::testing::TestWithParam<int>
{
};

TEST_P(RegressionRecovery, RandomModelsRecovered)
{
    const int dims = GetParam();
    workload::Rng rng(1234 + dims);
    std::vector<double> truth(dims);
    for (double &w : truth)
        w = rng.nextDouble() * 4.0 - 2.0;
    const double intercept = rng.nextDouble();

    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int s = 0; s < dims * 10 + 10; ++s) {
        std::vector<double> row(dims);
        double target = intercept;
        for (int d = 0; d < dims; ++d) {
            row[d] = rng.nextDouble() * 2.0 - 1.0;
            target += truth[d] * row[d];
        }
        x.push_back(std::move(row));
        y.push_back(target);
    }
    const LinearModel m = LinearModel::fit(x, y);
    for (int d = 0; d < dims; ++d)
        EXPECT_NEAR(m.weights()[d], truth[d], 1e-7) << "dim " << d;
    EXPECT_NEAR(m.intercept(), intercept, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Dims, RegressionRecovery,
                         ::testing::Values(1, 2, 3, 5, 7, 11, 22));

TEST(Pearson, PerfectCorrelation)
{
    EXPECT_NEAR(pearson({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
    EXPECT_NEAR(pearson({1, 2, 3, 4}, {-1, -2, -3, -4}), -1.0, 1e-12);
}

TEST(Pearson, ZeroVarianceGivesZero)
{
    EXPECT_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(Pearson, KnownValue)
{
    // r of (1,2,3) vs (1,3,2) is 0.5.
    EXPECT_NEAR(pearson({1, 2, 3}, {1, 3, 2}), 0.5, 1e-12);
}

TEST(Pearson, RejectsBadInput)
{
    EXPECT_THROW(pearson({1.0}, {1.0}), std::invalid_argument);
    EXPECT_THROW(pearson({1, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Summary, Mean)
{
    const std::vector<double> xs = {3, 1, 4, 1, 5};
    EXPECT_NEAR(mean(xs), 2.8, 1e-12);
    EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Summary, QuantileInterpolates)
{
    const std::vector<double> xs = {0, 10, 20, 30};
    EXPECT_NEAR(quantile(xs, 0.0), 0.0, 1e-12);
    EXPECT_NEAR(quantile(xs, 1.0), 30.0, 1e-12);
    EXPECT_NEAR(quantile(xs, 0.5), 15.0, 1e-12);
    EXPECT_THROW(quantile(xs, 1.5), std::invalid_argument);
}

TEST(Summary, QuantileEqualsTheSortedArrayFormula)
{
    // quantile() selects its two order statistics instead of sorting;
    // it must return the very double the sorted formula gives, ties
    // included (values drawn from 12 levels plus a fractional part
    // that is zero half the time).
    workload::Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> xs(1 + rng.nextBelow(300));
        for (double &x : xs) {
            x = static_cast<double>(rng.nextBelow(12)) +
                (rng.nextBelow(2) == 0 ? 0.0 : rng.nextDouble());
        }
        std::vector<double> sorted = xs;
        std::sort(sorted.begin(), sorted.end());
        for (const double p : {0.0, 0.05, 0.5, 0.95, 1.0}) {
            const double pos = p * static_cast<double>(xs.size() - 1);
            const auto lo = static_cast<std::size_t>(std::floor(pos));
            const auto hi = static_cast<std::size_t>(std::ceil(pos));
            const double frac = pos - static_cast<double>(lo);
            const double want =
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
            EXPECT_EQ(quantile(xs, p), want)
                << "n=" << xs.size() << " p=" << p;
        }
    }
}

TEST(Summary, EmpiricalCdfIsMonotone)
{
    workload::Rng rng(99);
    std::vector<double> xs;
    for (int i = 0; i < 500; ++i)
        xs.push_back(rng.nextDouble());
    const auto cdf = empiricalCdf(xs, 21);
    ASSERT_EQ(cdf.size(), 21u);
    for (size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_LE(cdf[i - 1].first, cdf[i].first);
        EXPECT_LT(cdf[i - 1].second, cdf[i].second);
    }
    EXPECT_NEAR(cdf.front().second, 0.0, 1e-12);
    EXPECT_NEAR(cdf.back().second, 1.0, 1e-12);
}

TEST(Summary, MedianOfOddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.5}), 7.5);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Summary, RobustMedianRejectsOutliers)
{
    // Five honest trials plus one wild outlier: the plain median
    // already shrugs it off, and the robust median must too.
    const std::vector<double> xs{1.00, 1.02, 0.98, 1.01, 0.99, 50.0};
    EXPECT_NEAR(robustMedian(xs), 1.0, 0.02);
    // All-identical samples: MAD is zero, the median comes back.
    EXPECT_DOUBLE_EQ(robustMedian({2.0, 2.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(robustMedian({5.0}), 5.0);
    EXPECT_THROW(robustMedian({}), std::invalid_argument);
    EXPECT_THROW(robustMedian({1.0}, 0.0), std::invalid_argument);
}

TEST(Summary, RobustMedianKeepsCleanSamplesIntact)
{
    // Without outliers the robust median equals the plain median.
    const std::vector<double> xs{0.8, 1.2, 1.0, 0.9, 1.1};
    EXPECT_DOUBLE_EQ(robustMedian(xs), median(xs));
}

TEST(Summary, RobustMedianEvenSizedSamples)
{
    // Even count: the median interpolates between the middle pair,
    // and the MAD cutoff is taken around that interpolated value.
    const std::vector<double> clean{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(robustMedian(clean), median(clean));

    // Even count with one wild outlier: the outlier is rejected and
    // the result is the median of the three survivors.
    const std::vector<double> dirty{1.00, 1.02, 0.98, 80.0};
    EXPECT_DOUBLE_EQ(robustMedian(dirty), 1.0);
}

TEST(Summary, RobustMedianZeroMadWithOutlierPresent)
{
    // A majority of identical values pins the MAD at zero even though
    // an outlier is present; the early-out must return the (clean)
    // median rather than divide the cutoff by zero.
    EXPECT_DOUBLE_EQ(robustMedian({2.0, 2.0, 2.0, 2.0, 100.0}), 2.0);
    // All-equal even-sized sample: interpolated median, MAD zero.
    EXPECT_DOUBLE_EQ(robustMedian({7.0, 7.0, 7.0, 7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median({7.0, 7.0, 7.0, 7.0}), 7.0);
}

} // namespace
} // namespace smite::stats
