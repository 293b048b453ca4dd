/** @file Edge-case tests for the scheduler: tiny budgets, clipping,
 *  arrival gating under priorities, plan retraction, and the order and
 *  cleanup of the expiry, drain and fail-stop sweeps. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/test_helpers.h"
#include "engine/scheduler.h"
#include "kvcache/layout.h"
#include "model/presets.h"

namespace shiftpar::engine {
namespace {

class SchedulerEdge : public ::testing::Test
{
  protected:
    SchedulerEdge()
        : cache_(1 << 18,
                 kvcache::KvLayout::base(model::llama_70b(), {1, 8}), 16)
    {
    }

    Request*
    add(std::int64_t prompt, std::int64_t output, int priority = 0,
        double arrival = 0.0)
    {
        auto r = std::make_unique<Request>();
        r->id = next_id_++;
        r->spec = {arrival, prompt, output};
        r->spec.priority = priority;
        r->prefill_target = prompt;
        requests_.push_back(std::move(r));
        return requests_.back().get();
    }

    void
    run_step(Scheduler& s, double t)
    {
        std::vector<Request*> fin;
        s.on_step_complete(t, s.schedule(t), &fin);
    }

    kvcache::CacheManager cache_;
    std::vector<std::unique_ptr<Request>> requests_;
    RequestId next_id_ = 1;
};

TEST_F(SchedulerEdge, BudgetOfOneStillMakesProgress)
{
    Scheduler s({.max_batched_tokens = 1}, &cache_);
    Request* r = add(3, 2);
    s.enqueue(r);
    double t = 0.0;
    for (int i = 0; i < 10 && s.has_work(); ++i)
        run_step(s, t += 0.01);
    EXPECT_TRUE(r->done());
    // 3 prefill chunks of 1 token + 1 decode step.
    EXPECT_DOUBLE_EQ(r->finished, 0.04);
}

TEST_F(SchedulerEdge, DecodeClipsAtOutputBoundary)
{
    Scheduler s({.max_batched_tokens = 8192,
                 .max_running_seqs = 1024,
                 .decode_tokens_per_step = 100},
                &cache_);
    Request* r = add(10, 3);  // only 2 tokens to decode after prefill
    s.enqueue(r);
    run_step(s, 0.1);  // prefill emits token 1
    const auto plan = s.schedule(0.2);
    ASSERT_EQ(plan.chunks.size(), 1u);
    EXPECT_EQ(plan.chunks[0].new_tokens, 2);
}

TEST_F(SchedulerEdge, FutureArrivalNotScheduled)
{
    Scheduler s({}, &cache_);
    Request* r = add(100, 2, 0, /*arrival=*/5.0);
    s.enqueue(r);
    EXPECT_TRUE(s.schedule(1.0).empty());
    EXPECT_DOUBLE_EQ(s.earliest_waiting_arrival(), 5.0);
    EXPECT_FALSE(s.schedule(5.0).empty());
}

TEST_F(SchedulerEdge, ArrivedLowPriorityAdmittedPastFutureHighPriority)
{
    Scheduler s({}, &cache_);
    s.enqueue(add(100, 2, /*priority=*/5, /*arrival=*/100.0));
    Request* now_req = add(100, 2, /*priority=*/0, /*arrival=*/0.0);
    s.enqueue(now_req);
    const auto plan = s.schedule(0.0);
    ASSERT_EQ(plan.chunks.size(), 1u);
    EXPECT_EQ(plan.chunks[0].request, now_req);
}

TEST_F(SchedulerEdge, HigherPriorityPrefillGetsBudgetFirst)
{
    Scheduler s({.max_batched_tokens = 1000}, &cache_);
    Request* low = add(5000, 2, 0);
    Request* high = add(5000, 2, 3);
    s.enqueue(low);   // submitted first
    s.enqueue(high);  // outranks it
    const auto plan = s.schedule(0.0);
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(plan.chunks[0].request, high);
    EXPECT_EQ(plan.batched_tokens(), 1000);
}

TEST_F(SchedulerEdge, LowerClassPrefillServedWhileHigherClassCannotAdmit)
{
    // A higher-class arrival that cannot be admitted (running_ is full)
    // ends admission for the step, but a lower-class prefill already
    // running still gets the budget in that same step.
    Scheduler s({.max_batched_tokens = 1000, .max_running_seqs = 1},
                &cache_);
    Request* low = add(5000, 2, /*priority=*/0);
    s.enqueue(low);
    run_step(s, 0.0);
    ASSERT_EQ(low->state, RequestState::kPrefill);

    Request* high = add(5000, 2, /*priority=*/3, /*arrival=*/0.1);
    s.enqueue(high);
    const auto plan = s.schedule(0.1);
    ASSERT_EQ(plan.chunks.size(), 1u);
    EXPECT_EQ(plan.chunks[0].request, low);
    EXPECT_EQ(plan.batched_tokens(), 1000);
    EXPECT_EQ(high->state, RequestState::kWaiting);
}

TEST_F(SchedulerEdge, ZeroOutputRequestsAreIllegalUpstream)
{
    // Engine::submit rejects them; scheduler-level contract is output>=1.
    auto e = shiftpar::testing::make_engine(
        shiftpar::testing::tiny_model(),
        shiftpar::testing::tp8_engine_config());
    EXPECT_DEATH(e->submit({0.0, 10, 0}, 1), "at least one");
}

TEST_F(SchedulerEdge, OutstandingTokensZeroWhenIdle)
{
    Scheduler s({}, &cache_);
    EXPECT_EQ(s.outstanding_tokens(), 0);
    EXPECT_FALSE(s.has_work());
    EXPECT_TRUE(std::isinf(s.earliest_waiting_arrival()));
}

TEST_F(SchedulerEdge, BatchPlanAccounting)
{
    Scheduler s({.max_batched_tokens = 600}, &cache_);
    s.enqueue(add(500, 5));
    s.enqueue(add(500, 5));
    const auto plan = s.schedule(0.0);
    EXPECT_EQ(plan.batched_tokens(), 600);
    parallel::BatchWork work;
    plan.work_into(&work);
    EXPECT_EQ(work.total_new_tokens(), 600);
    EXPECT_EQ(work.num_seqs(), 2);
    EXPECT_TRUE(work.chunks[0].is_prefill);
}

TEST_F(SchedulerEdge, WorkIntoReplacesStaleChunks)
{
    Scheduler s({}, &cache_);
    s.enqueue(add(300, 4));
    const auto plan = s.schedule(0.0);
    ASSERT_EQ(plan.chunks.size(), 1u);

    // A buffer left over from a wider step must end up holding exactly
    // this plan's chunk.
    parallel::BatchWork work = parallel::BatchWork::decode(5, 1000);
    plan.work_into(&work);
    ASSERT_EQ(work.num_seqs(), 1);
    EXPECT_EQ(work.chunks[0].new_tokens, 300);
    EXPECT_EQ(work.chunks[0].past, 0);
    EXPECT_TRUE(work.chunks[0].is_prefill);
    EXPECT_EQ(work.total_new_tokens(), plan.batched_tokens());
}

TEST(SchedulerSweep, ExpireDrainAndFailSweepRunningThenWaiting)
{
    // One mix per sweep: A (prefix 7, filler) and B run; C (prefix 7),
    // D and E wait. An 8-block pool holds exactly A's private blocks,
    // the 2-block prefix entry and B, so C attaches to the prefix at the
    // admission gate, is blocked on KV and waits while pinning it.
    struct Mix
    {
        kvcache::CacheManager cache{
            8 * 16, kvcache::KvLayout::base(model::llama_70b(), {1, 8}), 16};
        Scheduler sched{{}, &cache};
        std::vector<std::unique_ptr<Request>> owned;
        Request *a, *b, *c, *d, *e;

        Request*
        new_request(std::int64_t prefix_id, double deadline)
        {
            auto r = std::make_unique<Request>();
            r->id = static_cast<RequestId>(owned.size());
            r->spec = {0.0, 60, 100};
            r->spec.prefix_id = prefix_id;
            r->spec.prefix_tokens = prefix_id < 0 ? 0 : 32;
            r->spec.deadline = deadline;
            r->prefill_target = 60;
            sched.enqueue(r.get());
            owned.push_back(std::move(r));
            return owned.back().get();
        }

        Mix()
        {
            a = new_request(7, 1.0);
            b = new_request(-1, 0.0);
            c = new_request(7, 1.0);
            d = new_request(-1, 0.0);
            e = new_request(-1, 0.5);
            std::vector<Request*> fin;
            sched.on_step_complete(0.1, sched.schedule(0.0), &fin);
            EXPECT_TRUE(fin.empty());
            EXPECT_EQ(sched.num_running(), 2u);
            EXPECT_EQ(sched.num_waiting(), 3u);
            EXPECT_EQ(a->state, RequestState::kDecode);
            EXPECT_EQ(b->state, RequestState::kDecode);
            EXPECT_EQ(c->state, RequestState::kWaiting);
            EXPECT_TRUE(c->prefix_attached);
            EXPECT_EQ(cache.free_tokens(), 0);
        }

        /** @return true when no request pins the prefix entry. */
        bool
        prefix_unpinned()
        {
            cache.evict_idle_prefixes(
                std::numeric_limits<std::int64_t>::max());
            return cache.prefix_entry_count() == 0;
        }
    };
    using V = std::vector<Request*>;

    {
        Mix m;
        EXPECT_TRUE(m.sched.expire_due(0.4).empty());
        const V expired = m.sched.expire_due(1.0);
        EXPECT_EQ(expired, (V{m.a, m.c, m.e}));
        for (const Request* r : expired) {
            EXPECT_EQ(r->state, RequestState::kExpired);
            EXPECT_FALSE(r->prefix_attached);
        }
        EXPECT_EQ(m.b->state, RequestState::kDecode);
        EXPECT_EQ(m.d->state, RequestState::kWaiting);
        EXPECT_EQ(m.sched.num_running(), 1u);
        EXPECT_EQ(m.sched.num_waiting(), 1u);
        EXPECT_EQ(m.cache.num_requests(), 1u);  // only B holds KV
        EXPECT_TRUE(m.cache.accounting_consistent());
        EXPECT_TRUE(m.prefix_unpinned());
    }
    {
        Mix m;
        const V drained = m.sched.drain_waiting();
        EXPECT_EQ(drained, (V{m.c, m.d, m.e}));
        for (const Request* r : drained) {
            EXPECT_EQ(r->state, RequestState::kMigrated);
            EXPECT_FALSE(r->prefix_attached);
        }
        EXPECT_EQ(m.sched.num_running(), 2u);
        EXPECT_EQ(m.sched.num_waiting(), 0u);
        EXPECT_EQ(m.cache.num_requests(), 2u);  // A and B keep running
        EXPECT_TRUE(m.cache.accounting_consistent());
        EXPECT_TRUE(m.a->prefix_attached);
        EXPECT_FALSE(m.prefix_unpinned());  // A still pins it
    }
    {
        Mix m;
        const V lost = m.sched.fail_all();
        EXPECT_EQ(lost, (V{m.a, m.b, m.c, m.d, m.e}));
        for (const Request* r : lost) {
            EXPECT_EQ(r->state, RequestState::kLost);
            EXPECT_FALSE(r->prefix_attached);
        }
        EXPECT_FALSE(m.sched.has_work());
        EXPECT_EQ(m.cache.num_requests(), 0u);
        EXPECT_TRUE(m.cache.accounting_consistent());
        EXPECT_TRUE(m.prefix_unpinned());
    }
}

} // namespace
} // namespace shiftpar::engine
