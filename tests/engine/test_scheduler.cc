/** @file Tests for the continuous-batching / chunked-prefill scheduler. */

#include <gtest/gtest.h>

#include "engine/scheduler.h"
#include "kvcache/layout.h"
#include "model/presets.h"

namespace shiftpar::engine {
namespace {

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest()
        : cache_(kCapacity,
                 kvcache::KvLayout::base(model::llama_70b(), {1, 8}), 16)
    {
    }

    Scheduler
    make(SchedulerOptions opts = {})
    {
        return Scheduler(opts, &cache_);
    }

    Request*
    add(std::int64_t prompt, std::int64_t output)
    {
        auto r = std::make_unique<Request>();
        r->id = next_id_++;
        r->spec = {0.0, prompt, output};
        r->prefill_target = prompt;
        requests_.push_back(std::move(r));
        return requests_.back().get();
    }

    /** Drive plan lifecycle once. */
    std::vector<Request*>
    complete(Scheduler& s, const BatchPlan& plan, double t)
    {
        std::vector<Request*> finished;
        s.on_step_complete(t, plan, &finished);
        return finished;
    }

    static constexpr std::int64_t kCapacity = 1 << 20;
    kvcache::CacheManager cache_;
    std::vector<std::unique_ptr<Request>> requests_;
    RequestId next_id_ = 1;
};

TEST_F(SchedulerTest, EmptyWhenNoRequests)
{
    auto s = make();
    EXPECT_FALSE(s.has_work());
    EXPECT_TRUE(s.schedule(0.0).empty());
}

TEST_F(SchedulerTest, WholePromptInOneChunkWithinBudget)
{
    auto s = make({.max_batched_tokens = 8192});
    Request* r = add(1000, 5);
    s.enqueue(r);
    const BatchPlan plan = s.schedule(1.5);
    ASSERT_EQ(plan.chunks.size(), 1u);
    EXPECT_EQ(plan.chunks[0].new_tokens, 1000);
    EXPECT_TRUE(plan.chunks[0].is_prefill);
    EXPECT_EQ(plan.work().total_new_tokens(), 1000);
    EXPECT_DOUBLE_EQ(r->first_scheduled, 1.5);
}

TEST_F(SchedulerTest, ChunkedPrefillRespectsBudget)
{
    auto s = make({.max_batched_tokens = 512});
    Request* r = add(1200, 5);
    s.enqueue(r);

    auto p1 = s.schedule(0.0);
    EXPECT_EQ(p1.work().total_new_tokens(), 512);
    complete(s, p1, 0.1);
    EXPECT_EQ(r->prefilled, 512);

    auto p2 = s.schedule(0.1);
    EXPECT_EQ(p2.work().total_new_tokens(), 512);
    complete(s, p2, 0.2);

    auto p3 = s.schedule(0.2);
    EXPECT_EQ(p3.work().total_new_tokens(), 176);  // remainder
    complete(s, p3, 0.3);
    EXPECT_TRUE(r->prefill_done());
    EXPECT_EQ(r->decoded, 1);  // prefill completion samples first token
    EXPECT_DOUBLE_EQ(r->first_token, 0.3);
}

TEST_F(SchedulerTest, DecodeTokensScheduledEachStep)
{
    auto s = make();
    Request* r = add(100, 3);
    s.enqueue(r);
    complete(s, s.schedule(0.0), 0.1);  // prefill + first token
    ASSERT_EQ(r->state, RequestState::kDecode);

    // r decodes in the decode group: its token is in the plan's decode
    // sums, not in an explicit chunk.
    auto p = s.schedule(0.1);
    EXPECT_TRUE(p.chunks.empty());
    EXPECT_EQ(p.work().decodes.seqs, 1);
    EXPECT_EQ(p.work().prefills.seqs, 0);
    EXPECT_EQ(p.work().decodes.tokens, 1);
    EXPECT_EQ(p.work().decodes.read2, 2 * 100 + 1);  // past 100
    auto fin = complete(s, p, 0.2);
    EXPECT_TRUE(fin.empty());
    EXPECT_EQ(s.outstanding_tokens(), 1);  // 2 of 3 tokens decoded

    auto fin2 = complete(s, s.schedule(0.2), 0.3);
    ASSERT_EQ(fin2.size(), 1u);
    EXPECT_EQ(fin2[0], r);
    EXPECT_DOUBLE_EQ(r->finished, 0.3);
    EXPECT_FALSE(s.has_work());
    EXPECT_EQ(r->kv.num_blocks(), 0);
    EXPECT_EQ(cache_.used_blocks(), 0);
}

TEST_F(SchedulerTest, DecodesAndPrefillShareOneBatch)
{
    auto s = make({.max_batched_tokens = 4096});
    Request* a = add(100, 10);
    s.enqueue(a);
    complete(s, s.schedule(0.0), 0.1);  // a now decoding
    Request* b = add(500, 10);
    s.enqueue(b);

    const auto plan = s.schedule(0.1);
    EXPECT_EQ(plan.work().decodes.seqs, 1);    // a's decode token (group)
    EXPECT_EQ(plan.work().decodes.tokens, 1);
    ASSERT_EQ(plan.chunks.size(), 1u);
    EXPECT_EQ(plan.chunks[0].request, b);
    EXPECT_TRUE(plan.chunks[0].is_prefill);   // b's prefill fills the rest
    EXPECT_EQ(plan.work().total_new_tokens(), 501);
}

TEST_F(SchedulerTest, FcfsAdmissionOrder)
{
    auto s = make({.max_batched_tokens = 600});
    Request* a = add(500, 5);
    Request* b = add(500, 5);
    s.enqueue(a);
    s.enqueue(b);
    const auto plan = s.schedule(0.0);
    // Budget admits a fully and only 100 tokens of b.
    ASSERT_EQ(plan.chunks.size(), 2u);
    EXPECT_EQ(plan.chunks[0].request, a);
    EXPECT_EQ(plan.chunks[0].new_tokens, 500);
    EXPECT_EQ(plan.chunks[1].request, b);
    EXPECT_EQ(plan.chunks[1].new_tokens, 100);
}

TEST_F(SchedulerTest, MaxRunningSeqsCapsAdmission)
{
    auto s = make({.max_batched_tokens = 8192, .max_running_seqs = 2});
    for (int i = 0; i < 4; ++i)
        s.enqueue(add(10, 5));
    const auto plan = s.schedule(0.0);
    EXPECT_EQ(plan.chunks.size(), 2u);
    EXPECT_EQ(s.num_running(), 2u);
    EXPECT_EQ(s.num_waiting(), 2u);
}

TEST_F(SchedulerTest, MultiTokenDecodeForSpeculation)
{
    auto s = make({.max_batched_tokens = 8192,
                   .max_running_seqs = 1024,
                   .decode_tokens_per_step = 4});
    Request* r = add(50, 10);
    s.enqueue(r);
    complete(s, s.schedule(0.0), 0.1);  // prefill, decoded = 1
    auto p = s.schedule(0.1);
    EXPECT_EQ(p.work().decodes.seqs, 1);
    EXPECT_EQ(p.work().decodes.tokens, 4);
    complete(s, p, 0.2);
    EXPECT_EQ(s.outstanding_tokens(), 5);  // decoded 5 of 10
    // Last step is clipped to the remaining output.
    complete(s, s.schedule(0.2), 0.3);
    EXPECT_EQ(s.outstanding_tokens(), 1);  // decoded 9 of 10
    auto p3 = s.schedule(0.3);
    EXPECT_EQ(p3.chunks[0].new_tokens, 1);
    auto fin = complete(s, p3, 0.4);
    EXPECT_EQ(fin.size(), 1u);
    EXPECT_EQ(r->decoded, 10);
}

TEST_F(SchedulerTest, OutstandingTokensTracksRemainingWork)
{
    auto s = make();
    Request* r = add(100, 10);
    s.enqueue(r);
    EXPECT_EQ(s.outstanding_tokens(), 110);
    complete(s, s.schedule(0.0), 0.1);  // prefilled 100, decoded 1
    EXPECT_EQ(s.outstanding_tokens(), 9);
}

class SchedulerPreemptionTest : public ::testing::Test
{
  protected:
    SchedulerPreemptionTest()
        : cache_(/*token_capacity=*/160,
                 kvcache::KvLayout::base(model::llama_70b(), {1, 8}), 16)
    {
    }

    kvcache::CacheManager cache_;
    std::vector<std::unique_ptr<Request>> requests_;
    RequestId next_id_ = 1;

    Request*
    add(std::int64_t prompt, std::int64_t output)
    {
        auto r = std::make_unique<Request>();
        r->id = next_id_++;
        r->spec = {0.0, prompt, output};
        r->prefill_target = prompt;
        requests_.push_back(std::move(r));
        return requests_.back().get();
    }
};

TEST_F(SchedulerPreemptionTest, DecodeUnderPressurePreemptsNewest)
{
    Scheduler s({.max_batched_tokens = 8192}, &cache_);
    // Two requests that exactly exhaust the 160-token cache at admission:
    // a holds 80 (5 blocks), b holds 80 (5 blocks).
    Request* a = add(80, 50);
    Request* b = add(80, 50);
    s.enqueue(a);
    s.enqueue(b);
    std::vector<Request*> fin;
    s.on_step_complete(0.1, s.schedule(0.0), &fin);
    ASSERT_EQ(s.num_running(), 2u);

    // Next decode step needs a block for a's token 81 -> b (newest) gets
    // recompute-preempted.
    const auto plan = s.schedule(0.1);
    EXPECT_GE(s.preemption_count(), 1);
    // b lost its cache and restarts (it may already be re-admitted to
    // prefill within the same scheduling pass, but it is not decoding).
    EXPECT_NE(b->state, RequestState::kDecode);
    EXPECT_EQ(b->prefilled, 0);
    EXPECT_EQ(b->preemptions, 1);
    // b must re-prefill prompt + its already-produced token.
    EXPECT_EQ(b->prefill_target, 81);
    // a keeps decoding: the plan's one decode is its token 81, past 80
    // (a decode-group member, so it is in the sums, not in a chunk).
    EXPECT_EQ(a->state, RequestState::kDecode);
    EXPECT_EQ(plan.work().decodes.seqs, 1);
    EXPECT_EQ(plan.work().decodes.read2, 2 * 80 + 1);
    EXPECT_EQ(a->kv.num_tokens(), 81);
}

TEST_F(SchedulerPreemptionTest, PreemptedRequestEventuallyFinishes)
{
    Scheduler s({.max_batched_tokens = 8192}, &cache_);
    Request* a = add(80, 30);
    Request* b = add(80, 30);
    s.enqueue(a);
    s.enqueue(b);
    std::vector<Request*> finished;
    double t = 0.0;
    for (int step = 0; step < 500 && s.has_work(); ++step) {
        const auto plan = s.schedule(t);
        ASSERT_FALSE(plan.empty()) << "scheduler stalled at step " << step;
        t += 0.01;
        std::vector<Request*> fin;
        s.on_step_complete(t, plan, &fin);
        finished.insert(finished.end(), fin.begin(), fin.end());
    }
    EXPECT_EQ(finished.size(), 2u);
    EXPECT_TRUE(a->done());
    EXPECT_TRUE(b->done());
}

} // namespace
} // namespace shiftpar::engine
