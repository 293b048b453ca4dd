/** @file Tests for the FIFO link-occupancy model (`hw::LinkChannel`). */

#include <gtest/gtest.h>

#include <cmath>

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

TEST(LinkChannel, IdleLinkStartsAtRequestTime)
{
    LinkChannel ch(test_link());
    const auto w = ch.reserve(0, 10.0, 80.0);
    EXPECT_DOUBLE_EQ(w.start, 10.0);
    EXPECT_DOUBLE_EQ(w.end, 11.5);
    EXPECT_DOUBLE_EQ(ch.busy_until(), 11.5);
}

TEST(LinkChannel, OverlappingTransfersSerializeFifo)
{
    LinkChannel ch(test_link());
    const auto a = ch.reserve(0, 0.0, 80.0);   // [0, 1.5]
    const auto b = ch.reserve(1, 1.0, 80.0);   // queues: [1.5, 3.0]
    const auto c = ch.reserve(2, 10.0, 80.0);  // idle gap: [10, 11.5]
    EXPECT_DOUBLE_EQ(a.end, 1.5);
    EXPECT_DOUBLE_EQ(b.start, 1.5);
    EXPECT_DOUBLE_EQ(b.end, 3.0);
    EXPECT_DOUBLE_EQ(c.start, 10.0);
}

TEST(LinkChannel, CancelBeforeStartPullsQueuedTransfersEarlier)
{
    LinkChannel ch(test_link());
    ch.reserve(0, 0.0, 80.0);  // [0, 1.5]
    ch.reserve(1, 0.0, 80.0);  // [1.5, 3.0]
    ch.reserve(2, 0.0, 80.0);  // [3.0, 4.5]
    // Cancel #1 while it is still queued (t inside #0's window).
    const auto moved = ch.cancel(1, 1.0);
    ASSERT_EQ(moved.size(), 1u);
    EXPECT_EQ(moved[0], 2);
    const auto w2 = ch.window(2);
    EXPECT_DOUBLE_EQ(w2.start, 1.5);
    EXPECT_DOUBLE_EQ(w2.end, 3.0);
    // The cancelled reservation is gone.
    EXPECT_TRUE(std::isnan(ch.window(1).start));
}

TEST(LinkChannel, CancelInFlightHoldsTheLinkUntilTheAbort)
{
    LinkChannel ch(test_link());
    ch.reserve(0, 0.0, 80.0);  // [0, 1.5]
    ch.reserve(1, 0.0, 80.0);  // [1.5, 3.0]
    // Abort #0 mid-transfer: the bytes already sent kept the link busy
    // until 1.0, so #1 starts there instead of 1.5.
    const auto moved = ch.cancel(0, 1.0);
    ASSERT_EQ(moved.size(), 1u);
    EXPECT_EQ(moved[0], 1);
    const auto w1 = ch.window(1);
    EXPECT_DOUBLE_EQ(w1.start, 1.0);
    EXPECT_DOUBLE_EQ(w1.end, 2.5);
    EXPECT_DOUBLE_EQ(ch.busy_until(), 2.5);
}

TEST(LinkChannel, CancelAfterDeliveryIsANoOp)
{
    LinkChannel ch(test_link());
    ch.reserve(0, 0.0, 80.0);  // [0, 1.5]
    EXPECT_TRUE(ch.cancel(0, 2.0).empty());
    EXPECT_DOUBLE_EQ(ch.window(0).end, 1.5);
}

TEST(LinkChannel, CancelOfUnknownIdIsANoOp)
{
    LinkChannel ch(test_link());
    ch.reserve(0, 0.0, 80.0);
    EXPECT_TRUE(ch.cancel(7, 0.5).empty());
}

TEST(LinkChannel, UnshiftedTransfersAreNotReported)
{
    LinkChannel ch(test_link());
    ch.reserve(0, 0.0, 80.0);   // [0, 1.5]
    ch.reserve(1, 0.0, 80.0);   // [1.5, 3.0]
    ch.reserve(2, 5.0, 80.0);   // idle gap: [5.0, 6.5], unaffected below
    const auto moved = ch.cancel(0, 0.5);
    // #1 shifts to [0.5, 2.0]; #2 still starts at its request time 5.0.
    ASSERT_EQ(moved.size(), 1u);
    EXPECT_EQ(moved[0], 1);
    EXPECT_DOUBLE_EQ(ch.window(2).start, 5.0);
}

TEST(LinkChannel, WindowOfUnknownIdIsNaN)
{
    LinkChannel ch(test_link());
    EXPECT_TRUE(std::isnan(ch.window(42).start));
    EXPECT_TRUE(std::isnan(ch.window(42).end));
}

} // namespace
} // namespace shiftpar::hw
