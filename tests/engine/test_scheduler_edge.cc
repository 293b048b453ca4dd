/** @file Edge-case tests for the scheduler: tiny budgets, clipping,
 *  arrival gating under priorities, plan retraction, and the order and
 *  cleanup of the expiry, drain and fail-stop sweeps. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/test_helpers.h"
#include "engine/scheduler.h"
#include "kvcache/layout.h"
#include "model/presets.h"

namespace shiftpar::engine {

/** Reads how far a decode-group member's progress lags its fields
 *  (negative between `schedule` and `on_step_complete` for a member the
 *  fallback pass has already advanced). */
struct SchedulerTestPeer
{
    static std::int64_t
    lag(const Scheduler& s, const Request& r)
    {
        return r.synced_epoch >= 0 ? s.opts_.decode_tokens_per_step *
                                         (s.group_.epoch - r.synced_epoch)
                                   : 0;
    }
};

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
    EXPECT_EQ(plan.work().total_new_tokens(), 1000);
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
    EXPECT_EQ(plan.work().total_new_tokens(), 1000);
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
    const parallel::BatchWork work = plan.work();
    EXPECT_EQ(work.total_new_tokens(), 600);
    EXPECT_EQ(work.num_seqs(), 2);
    EXPECT_EQ(work.prefills.seqs, 2);
    EXPECT_EQ(work.decodes, model::PhaseWork{});
}

TEST_F(SchedulerEdge, PlanWorkSumsItsChunks)
{
    Scheduler s({}, &cache_);
    s.enqueue(add(300, 4));

    // The whole prompt in one chunk: token i attends i + 1 keys.
    const BatchPlan prefill = s.schedule(0.0);
    ASSERT_EQ(prefill.chunks.size(), 1u);
    EXPECT_EQ(prefill.work().prefills,
              (model::PhaseWork{1, 300, 300 * 301 / 2, 300}));
    EXPECT_EQ(prefill.work().decodes, model::PhaseWork{});
    std::vector<Request*> fin;
    s.on_step_complete(0.1, prefill, &fin);

    // The next token decodes after the 300 cached ones.
    const BatchPlan decode = s.schedule(0.1);
    EXPECT_EQ(decode.work().prefills, model::PhaseWork{});
    EXPECT_EQ(decode.work().decodes, (model::PhaseWork{1, 1, 301, 601}));
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

        /** @return the KV blocks the requests in `held` own, after
         *  checking that every other request owns none. */
        std::int64_t
        kv_held_by(const std::vector<Request*>& held) const
        {
            std::int64_t blocks = 0;
            for (const auto& r : owned) {
                const bool holds =
                    std::find(held.begin(), held.end(), r.get()) !=
                    held.end();
                EXPECT_EQ(holds, r->kv.num_blocks() > 0)
                    << "request " << r->id;
                blocks += r->kv.num_blocks();
            }
            return blocks;
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
        EXPECT_TRUE(m.cache.accounting_consistent(m.kv_held_by({m.b})));
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
        EXPECT_TRUE(
            m.cache.accounting_consistent(m.kv_held_by({m.a, m.b})));
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
        EXPECT_EQ(m.kv_held_by({}), 0);
        EXPECT_TRUE(m.cache.accounting_consistent(0));
        EXPECT_TRUE(m.prefix_unpinned());
    }
}

/** A scheduler over its own pool, whose requests the test sums itself. */
struct Ledger
{
    kvcache::CacheManager cache;
    Scheduler sched;
    std::vector<std::unique_ptr<Request>> owned;

    Ledger(std::int64_t pool_tokens, SchedulerOptions opts)
        : cache(pool_tokens,
                kvcache::KvLayout::base(model::llama_70b(), {1, 8}), 16),
          sched(opts, &cache)
    {
    }

    Request*
    new_request(std::int64_t prompt, std::int64_t output,
                double deadline = 0.0,
        std::int64_t prefix_id = -1, std::int64_t prefix_tokens = 0)
    {
        auto r = std::make_unique<Request>();
        r->id = static_cast<RequestId>(owned.size());
        r->spec = {0.0, prompt, output, prefix_id, prefix_tokens};
        r->spec.deadline = deadline;
        r->prefill_target = prompt;
        sched.enqueue(r.get());
        owned.push_back(std::move(r));
        return owned.back().get();
    }

    /** @return prefill plus output tokens still owed by every request
     *  whose state says it is waiting or running. */
    std::int64_t
    owed() const
    {
        std::int64_t total = 0;
        for (const auto& r : owned) {
            if (r->state == RequestState::kWaiting ||
                r->state == RequestState::kPrefill ||
                r->state == RequestState::kDecode) {
                // A decode-group member's `decoded` lags its progress.
                total += (r->prefill_target - r->prefilled) +
                         (r->spec.output_tokens - r->decoded) -
                         SchedulerTestPeer::lag(sched, *r);
            }
        }
        return total;
    }

    /** One step, checking the total after scheduling and completion. */
    std::vector<Request*>
    step(double t)
    {
        const BatchPlan plan = sched.schedule(t);
        EXPECT_EQ(sched.outstanding_tokens(), owed()) << "scheduled at " << t;
        std::vector<Request*> fin;
        sched.on_step_complete(t, plan, &fin);
        EXPECT_EQ(sched.outstanding_tokens(), owed()) << "completed at " << t;
        return fin;
    }
};

TEST(SchedulerTotals, OutstandingFollowsPrefixHitChunksDecodeAndFinish)
{
    Ledger l(1 << 14, {.max_batched_tokens = 64});
    Request* a =
        l.new_request(100, 3, 0.0, /*prefix_id=*/7, /*prefix_tokens=*/64);
    EXPECT_EQ(l.sched.outstanding_tokens(), 103);
    EXPECT_EQ(l.owed(), 103);

    l.step(0.1);  // chunk 1: 64 tokens into the prefix entry
    EXPECT_EQ(a->prefilled, 64);
    EXPECT_EQ(l.sched.outstanding_tokens(), 39);
    l.step(0.2);  // chunk 2 finishes prefill and samples a token
    EXPECT_EQ(a->state, RequestState::kDecode);
    EXPECT_EQ(l.sched.outstanding_tokens(), 2);

    Request* b = l.new_request(100, 3, 0.0, 7, 64);
    EXPECT_EQ(l.sched.outstanding_tokens(), 105);
    // Admission attaches b to the filled prefix: 64 tokens are a hit.
    const BatchPlan plan = l.sched.schedule(0.3);
    EXPECT_EQ(l.cache.prefix_hit_tokens(), 64);
    EXPECT_EQ(b->prefix_filled, 64);
    EXPECT_EQ(l.sched.outstanding_tokens(), 2 + 36 + 3);
    EXPECT_EQ(l.sched.outstanding_tokens(), l.owed());
    std::vector<Request*> fin;
    l.sched.on_step_complete(0.3, plan, &fin);  // a decodes, b prefills
    EXPECT_EQ(l.sched.outstanding_tokens(), 1 + 2);
    EXPECT_EQ(l.sched.outstanding_tokens(), l.owed());

    double t = 0.3;
    std::size_t finished = 0;
    while (l.sched.has_work() && t < 1.0)
        finished += l.step(t += 0.1).size();
    EXPECT_EQ(finished, 2u);
    EXPECT_EQ(a->state, RequestState::kFinished);
    EXPECT_EQ(b->state, RequestState::kFinished);
    EXPECT_EQ(l.sched.outstanding_tokens(), 0);
}

TEST(SchedulerTotals, OutstandingFollowsPreemptionAndRecompute)
{
    // Four blocks hold both prompts and a few decode tokens each; the
    // decode growth then preempts the younger request, which recomputes.
    Ledger l(4 * 16, {});
    Request* a = l.new_request(16, 40);
    Request* b = l.new_request(16, 40);
    EXPECT_EQ(l.sched.outstanding_tokens(), 112);
    double t = 0.0;
    bool saw_recompute = false;
    for (int i = 0; i < 400 && l.sched.has_work(); ++i) {
        l.step(t += 0.01);
        saw_recompute = saw_recompute || b->prefill_target > 16;
    }
    EXPECT_GT(l.sched.preemption_count(), 0);
    EXPECT_TRUE(saw_recompute);
    EXPECT_EQ(a->state, RequestState::kFinished);
    EXPECT_EQ(b->state, RequestState::kFinished);
    EXPECT_EQ(l.sched.outstanding_tokens(), 0);
}

TEST(SchedulerTotals, OutstandingFollowsEveryWayOutOfAQueue)
{
    Ledger l(1 << 14, {.max_running_seqs = 2});
    Request* a = l.new_request(50, 10);
    Request* b = l.new_request(50, 10, /*deadline=*/1.0);
    Request* c = l.new_request(50, 10);
    Request* d = l.new_request(50, 10, /*deadline=*/0.5);
    Request* e = l.new_request(50, 10);
    l.step(0.1);  // a and b run; c, d and e wait
    ASSERT_EQ(l.sched.num_running(), 2u);
    EXPECT_EQ(l.sched.outstanding_tokens(), 2 * 9 + 3 * 60);

    l.sched.cancel(a);  // running
    EXPECT_EQ(l.sched.outstanding_tokens(), l.owed());
    l.sched.cancel(c);  // waiting
    EXPECT_EQ(l.sched.outstanding_tokens(), l.owed());
    EXPECT_EQ(l.sched.steal_waiting(0.2, 1 << 20), e);
    EXPECT_EQ(l.sched.outstanding_tokens(), l.owed());
    EXPECT_EQ(l.sched.expire_due(0.6), std::vector<Request*>{d});
    EXPECT_EQ(l.sched.outstanding_tokens(), l.owed());
    EXPECT_EQ(l.sched.outstanding_tokens(), 9);  // b alone

    l.new_request(30, 5);
    l.new_request(20, 5);
    EXPECT_EQ(l.sched.outstanding_tokens(), 9 + 35 + 25);
    EXPECT_EQ(l.sched.drain_waiting().size(), 2u);
    EXPECT_EQ(l.sched.outstanding_tokens(), l.owed());
    EXPECT_EQ(l.sched.fail_all(), std::vector<Request*>{b});
    EXPECT_EQ(l.owed(), 0);
    EXPECT_EQ(l.sched.outstanding_tokens(), 0);
}

TEST(SchedulerTotals, EnqueueLowersTheDeadlineFloorAfterASweep)
{
    Ledger l(1 << 14, {});
    Request* a = l.new_request(50, 10, /*deadline=*/10.0);
    Request* c = l.new_request(50, 10);
    EXPECT_TRUE(l.sched.expire_due(5.0).empty());
    Request* b = l.new_request(50, 10, /*deadline=*/6.0);
    EXPECT_DOUBLE_EQ(l.sched.earliest_deadline(), 6.0);
    EXPECT_EQ(l.sched.expire_due(7.0), std::vector<Request*>{b});
    EXPECT_EQ(b->state, RequestState::kExpired);
    EXPECT_EQ(a->state, RequestState::kWaiting);
    EXPECT_EQ(l.sched.num_waiting(), 2u);
    EXPECT_DOUBLE_EQ(l.sched.earliest_deadline(), 10.0);

    // The floor still says 10 after a leaves; the sweep it triggers finds
    // nothing due and leaves the queue as it was.
    l.sched.cancel(a);
    EXPECT_TRUE(std::isinf(l.sched.earliest_deadline()));
    EXPECT_TRUE(l.sched.expire_due(11.0).empty());
    EXPECT_EQ(l.sched.num_waiting(), 1u);
    EXPECT_EQ(l.sched.num_running(), 0u);
    EXPECT_EQ(c->state, RequestState::kWaiting);
    EXPECT_EQ(l.sched.outstanding_tokens(), 60);
    EXPECT_FALSE(l.sched.schedule(12.0).empty());  // c is still servable
}

} // namespace
} // namespace shiftpar::engine
