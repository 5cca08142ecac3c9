/**
 * @file
 * Unit tests for the PMU rate catalog that the Equation 9 baseline
 * reads. The Equation 3 and Equation 9 predictors themselves are
 * tested in test_predictor.cpp.
 */

#include <gtest/gtest.h>

#include "sim/counters.h"

namespace smite::core {
namespace {

TEST(PmuRates, NamesMatchPaperList)
{
    ASSERT_EQ(sim::kPmuRateNames.size(),
              static_cast<size_t>(sim::kNumPmuRates));
    EXPECT_EQ(sim::kPmuRateNames[0], "instructions/cycle");
    EXPECT_EQ(sim::kPmuRateNames[10], "branch-mispredictions/cycle");
}

} // namespace
} // namespace smite::core
