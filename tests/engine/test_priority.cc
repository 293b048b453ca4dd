/** @file Tests for priority (QoS-class) scheduling. */

#include <gtest/gtest.h>

#include "common/test_helpers.h"
#include "engine/router.h"

namespace shiftpar::engine {
namespace {

using shiftpar::testing::make_engine;
using shiftpar::testing::replay;
using shiftpar::testing::tiny_model;
using shiftpar::testing::tp8_engine_config;

TEST(Priority, HigherClassAdmittedFirst)
{
    auto cfg = tp8_engine_config();
    cfg.sched.max_running_seqs = 1;  // serialize to expose ordering
    auto e = make_engine(tiny_model(), cfg);
    // Batch request submitted first, interactive (priority 1) second.
    RequestSpec batch{0.0, 4000, 50};
    RequestSpec interactive{0.0, 500, 10};
    interactive.priority = 1;
    e->submit(batch, 1);
    e->submit(interactive, 2);
    replay({e.get()});
    const auto& recs = e->metrics().requests();
    ASSERT_EQ(recs.size(), 2u);
    // The interactive request finished first despite later submission.
    EXPECT_EQ(recs[0].id, 2);
    EXPECT_LT(recs[0].wait, recs[1].wait);
}

TEST(Priority, FcfsWithinClass)
{
    auto cfg = tp8_engine_config();
    cfg.sched.max_running_seqs = 1;
    auto e = make_engine(tiny_model(), cfg);
    for (int i = 0; i < 3; ++i)
        e->submit({0.0, 1000, 5}, i);
    replay({e.get()});
    const auto& recs = e->metrics().requests();
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].id, 0);
    EXPECT_EQ(recs[1].id, 1);
    EXPECT_EQ(recs[2].id, 2);
}

TEST(Priority, InteractiveTtftImprovesUnderLoad)
{
    // A flood of batch work plus periodic interactive requests: raising
    // the interactive priority must cut their TTFT substantially without
    // touching completion correctness.
    const auto run = [&](int interactive_priority) {
        auto e = make_engine(tiny_model(), tp8_engine_config());
        RequestId id = 0;
        for (int i = 0; i < 64; ++i)
            e->submit({0.0, 8000, 20}, id++);
        Summary ttft;
        std::vector<RequestId> interactive_ids;
        for (int i = 0; i < 8; ++i) {
            RequestSpec r{0.5 * i, 400, 20};
            r.priority = interactive_priority;
            interactive_ids.push_back(id);
            e->submit(r, id++);
        }
        replay({e.get()});
        for (const auto& rec : e->metrics().requests()) {
            if (std::find(interactive_ids.begin(), interactive_ids.end(),
                          rec.id) != interactive_ids.end())
                ttft.add(rec.ttft);
        }
        return ttft.mean();
    };
    const double flat = run(0);
    const double prioritized = run(1);
    EXPECT_LT(prioritized, flat / 2.0);
}

TEST(Priority, ArrivedLowClassNotBlockedByFutureHighClass)
{
    auto e = make_engine(tiny_model(), tp8_engine_config());
    RequestSpec future_vip{50.0, 500, 5};
    future_vip.priority = 9;
    e->submit(future_vip, 1);
    e->submit({0.0, 500, 5}, 2);  // arrived, low class
    // By 1.0 the low-class request must already be past scheduling.
    replay({e.get()}, {{1.0, [&] {
                           ASSERT_GE(e->metrics().requests().size() +
                                         (e->has_work() ? 1u : 0u),
                                     1u);
                       }}});
    const auto& recs = e->metrics().requests();
    ASSERT_EQ(recs.size(), 2u);
    for (const auto& rec : recs) {
        if (rec.id == 2) {
            EXPECT_LT(rec.wait, 1.0);  // not stuck behind the future VIP
        }
    }
}

TEST(Priority, PreemptedRequestRejoinsFrontOfItsClass)
{
    // With a tiny cache, the newest same-class request gets preempted and
    // must still finish before requests submitted after it re-queues.
    auto cfg = tp8_engine_config();
    cfg.sched.max_batched_tokens = 1 << 16;
    auto e = make_engine(tiny_model(), cfg);
    // tiny_model KV capacity is large; shrink working set via many seqs.
    for (int i = 0; i < 6; ++i)
        e->submit({0.0, 2000, 30}, i);
    replay({e.get()});
    EXPECT_EQ(e->metrics().requests().size(), 6u);
}

} // namespace
} // namespace shiftpar::engine
