/**
 * @file
 * Unit tests for the uop/port model (the Figure 1 binding table).
 */

#include <gtest/gtest.h>

#include "sim/uop.h"

namespace smite::sim {
namespace {

TEST(Uop, PortSpecificBindings)
{
    // The paper's port-specific operations (Figure 1).
    EXPECT_EQ(portMask(UopType::kFpMul), 0b000001u);   // port 0 only
    EXPECT_EQ(portMask(UopType::kFpAdd), 0b000010u);   // port 1 only
    EXPECT_EQ(portMask(UopType::kFpShf), 0b100000u);   // port 5 only
    EXPECT_EQ(portMask(UopType::kIntAdd), 0b100011u);  // ports 0,1,5
    EXPECT_EQ(portMask(UopType::kBranch), 0b100000u);  // port 5
    EXPECT_EQ(portMask(UopType::kLoad), 0b001100u);    // ports 2,3
    EXPECT_EQ(portMask(UopType::kStore), 0b010000u);   // port 4
    EXPECT_EQ(portMask(UopType::kNop), 0u);
}

TEST(Uop, PortMasksWithinRange)
{
    for (int t = 0; t < kNumUopTypes; ++t) {
        const auto mask = portMask(static_cast<UopType>(t));
        EXPECT_EQ(mask >> kNumPorts, 0u) << "type " << t;
    }
}

TEST(Uop, ExecLatencies)
{
    EXPECT_EQ(execLatency(UopType::kFpMul), 5u);
    EXPECT_EQ(execLatency(UopType::kFpAdd), 3u);
    EXPECT_EQ(execLatency(UopType::kIntAdd), 1u);
    EXPECT_EQ(execLatency(UopType::kLoad), 0u);  // memory adds it
}

TEST(Uop, AddressHelpers)
{
    EXPECT_EQ(lineAddr(0), 0u);
    EXPECT_EQ(lineAddr(63), 0u);
    EXPECT_EQ(lineAddr(64), 1u);
    EXPECT_EQ(pageAddr(4095), 0u);
    EXPECT_EQ(pageAddr(4096), 1u);
}

} // namespace
} // namespace smite::sim
