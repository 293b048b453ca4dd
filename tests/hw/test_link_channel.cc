/** @file Tests for the FIFO link-occupancy model (`hw::LinkChannel`). */

#include <gtest/gtest.h>

#include "hw/interconnect.h"

namespace shiftpar::hw {
namespace {

LinkSpec
test_link()
{
    LinkSpec link;
    link.name = "test-fabric";
    link.bw = 100.0;  // bytes/s, tiny numbers keep windows readable
    link.latency = 0.5;
    link.efficiency = 0.8;
    return link;
}

TEST(LinkChannel, OccupancyIsBandwidthPlusLatency)
{
    LinkChannel ch(test_link());
    // 80 bytes at 100 B/s * 0.8 efficiency = 1 s, plus 0.5 s latency.
    EXPECT_DOUBLE_EQ(ch.occupancy(80.0), 1.5);
}

// A reservation's start is the end it returns less its occupancy; the
// checks below also read `busy_until()` before each reservation, the
// clock the start is taken from.

TEST(LinkChannel, IdleLinkStartsAtRequestTime)
{
    LinkChannel ch(test_link());
    EXPECT_DOUBLE_EQ(ch.busy_until(), 0.0);
    const double end = ch.reserve(10.0, 80.0);
    EXPECT_DOUBLE_EQ(end - ch.occupancy(80.0), 10.0);
    EXPECT_DOUBLE_EQ(end, 11.5);
    EXPECT_DOUBLE_EQ(ch.busy_until(), 11.5);
}

TEST(LinkChannel, OverlappingTransfersSerializeFifo)
{
    LinkChannel ch(test_link());
    EXPECT_DOUBLE_EQ(ch.busy_until(), 0.0);
    const double a = ch.reserve(0.0, 80.0);  // [0, 1.5]
    EXPECT_DOUBLE_EQ(a - ch.occupancy(80.0), 0.0);
    EXPECT_DOUBLE_EQ(a, 1.5);
    EXPECT_DOUBLE_EQ(ch.busy_until(), 1.5);
    const double b = ch.reserve(1.0, 80.0);  // queues: [1.5, 3.0]
    EXPECT_DOUBLE_EQ(b - ch.occupancy(80.0), 1.5);
    EXPECT_DOUBLE_EQ(b, 3.0);
    EXPECT_DOUBLE_EQ(ch.busy_until(), 3.0);
    // After an idle gap the link starts at the request time, and the
    // busy-until clock moves forward to the new window's end.
    const double c = ch.reserve(10.0, 80.0);  // [10, 11.5]
    EXPECT_DOUBLE_EQ(c - ch.occupancy(80.0), 10.0);
    EXPECT_DOUBLE_EQ(c, 11.5);
    EXPECT_DOUBLE_EQ(ch.busy_until(), 11.5);
}

} // namespace
} // namespace shiftpar::hw
