/**
 * @file
 * Regression tests for scheduler token-budget accounting: the decode pass
 * must never push a step past `max_batched_tokens` (the ShiftController's
 * Alg. 2 decision input), preempting a planned victim must refund its
 * retracted chunk, a preempted-then-resumed request must not double-count
 * its prefix-cache hit, and migrated-request admission follows the same
 * FCFS blocking rule as the prefill pass.
 */

#include <gtest/gtest.h>

#include "core/disaggregated.h"
#include "engine/scheduler.h"
#include "hw/presets.h"
#include "kvcache/layout.h"
#include "model/presets.h"
#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/synthetic.h"

namespace shiftpar::engine {
namespace {

class SchedulerBudgetTest : public ::testing::Test
{
  protected:
    explicit SchedulerBudgetTest(std::int64_t capacity = 1 << 20)
        : cache_(capacity,
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

    /** A request whose prompt was prefilled elsewhere (migrated decode). */
    Request*
    add_prefilled(std::int64_t prompt, std::int64_t output)
    {
        Request* r = add(prompt, output);
        r->prefilled = prompt;
        r->decoded = 1;  // the prefill worker produced the first token
        return r;
    }

    std::vector<Request*>
    complete(Scheduler& s, const BatchPlan& plan, double t)
    {
        std::vector<Request*> finished;
        s.on_step_complete(t, plan, &finished);
        return finished;
    }

    kvcache::CacheManager cache_;
    std::vector<std::unique_ptr<Request>> requests_;
    RequestId next_id_ = 1;
};

// ---- Decode chunks are capped at the remaining budget ----------------------

TEST_F(SchedulerBudgetTest, DecodePassNeverOvershootsBudget)
{
    // Budget 10 with 4-token decode chunks (speculative decoding): the
    // third sequence's chunk must be capped at the 2 remaining tokens, not
    // scheduled at full width (batched 12 > 10).
    auto s = make({.max_batched_tokens = 10, .decode_tokens_per_step = 4});
    for (int i = 0; i < 5; ++i)
        s.enqueue(add_prefilled(16, 50));

    const BatchPlan plan = s.schedule(0.0);
    EXPECT_LE(plan.work().total_new_tokens(), 10);
    EXPECT_EQ(plan.work().total_new_tokens(), 10);  // 4 + 4 + 2
    ASSERT_EQ(plan.chunks.size(), 3u);
    EXPECT_EQ(plan.chunks[2].new_tokens, 2);
}

TEST_F(SchedulerBudgetTest, FuzzedRunsStayWithinBudgetEveryStep)
{
    Rng rng(20260806);
    for (int round = 0; round < 8; ++round) {
        const SchedulerOptions opts{
            .max_batched_tokens = rng.uniform_int(32, 256),
            .max_running_seqs = rng.uniform_int(2, 64),
            .decode_tokens_per_step = rng.uniform_int(1, 4)};
        auto s = make(opts);
        double t = 0.0;
        int pending = static_cast<int>(rng.uniform_int(10, 40));
        for (int step = 0; step < 400 && (pending > 0 || s.has_work());
             ++step) {
            if (pending > 0 && rng.bernoulli(0.4)) {
                --pending;
                if (rng.bernoulli(0.3)) {
                    // Migrated requests always have tokens left to decode
                    // (Engine::submit_prefilled's contract).
                    s.enqueue(add_prefilled(rng.uniform_int(1, 600),
                                            rng.uniform_int(2, 40)));
                } else {
                    s.enqueue(add(rng.uniform_int(1, 600),
                                  rng.uniform_int(1, 40)));
                }
            }
            const BatchPlan plan = s.schedule(t);
            ASSERT_LE(plan.work().total_new_tokens(), opts.max_batched_tokens)
                << "round " << round << " step " << step;
            t += 0.01;
            complete(s, plan, t);
        }
    }
}

// ---- Preempting a planned victim refunds its chunk -------------------------

class SchedulerRefundTest : public SchedulerBudgetTest
{
  protected:
    // 8 blocks of 16 tokens: exactly the four 2-block prompts below, so
    // the first decode append that needs a fresh block fails.
    SchedulerRefundTest() : SchedulerBudgetTest(8 * 16) {}
};

TEST_F(SchedulerRefundTest, PreemptedPlannedChunkIsRefunded)
{
    auto s = make({.max_batched_tokens = 8, .decode_tokens_per_step = 2});
    // Admission order: R1, R2, A, B. A is the preemption victim (most
    // recently admitted other than B); its planned chunk must be refunded.
    s.enqueue(add_prefilled(30, 50));
    s.enqueue(add_prefilled(30, 50));
    Request* a = add_prefilled(30, 50);
    s.enqueue(a);
    Request* b = add_prefilled(32, 50);
    s.enqueue(b);

    // One schedule call: all four admitted (8 blocks exactly), then the
    // decode pass runs R1 (+2, slack), R2 (+2, slack), A (+2, slack) and
    // B (+2) needs a fresh block with none free -> A is preempted, its
    // chunk retracted and refunded, and the refund funds A's re-admission
    // prefill chunk — a full 8-token step. Without the refund the step
    // tops out at 6 tokens.
    const BatchPlan plan = s.schedule(0.0);
    EXPECT_EQ(s.preemption_count(), 1);
    EXPECT_EQ(a->state, RequestState::kPrefill);  // re-admitted this step
    EXPECT_LE(plan.work().total_new_tokens(), 8);
    EXPECT_EQ(plan.work().total_new_tokens(), 8);

    // No stale chunk for the victim's retracted decode work.
    for (const auto& c : plan.chunks) {
        if (c.request == a) {
            EXPECT_TRUE(c.is_prefill);
        }
    }
}

// ---- Prefix hits are counted once per request ------------------------------

class SchedulerPrefixCountTest : public SchedulerBudgetTest
{
  protected:
    // 12 blocks: prefix entry (4) + A (5 incl. one decode block) + P2
    // private prefill (2) + one spare that P2's decode growth exhausts.
    SchedulerPrefixCountTest() : SchedulerBudgetTest(12 * 16) {}
};

TEST_F(SchedulerPrefixCountTest, PreemptThenResumeCountsHitOnce)
{
    auto s = make({.max_batched_tokens = 512});

    // P0 fills the shared prefix entry (63 tokens cached) and finishes.
    Request* p0 = add(64, 1);
    p0->spec.prefix_id = 7;
    p0->spec.prefix_tokens = 64;
    s.enqueue(p0);
    complete(s, s.schedule(0.0), 0.1);
    ASSERT_EQ(p0->state, RequestState::kFinished);
    EXPECT_EQ(cache_.prefix_hit_tokens(), 0);  // entry was empty on attach
    EXPECT_EQ(cache_.prefix_cached_tokens(7), 63);

    // A long-running competitor admitted before P2.
    Request* competitor = add(64, 100);
    s.enqueue(competitor);
    complete(s, s.schedule(0.1), 0.2);

    // P2 reuses the prefix: 63 tokens served from cache, counted once.
    // (P2 also tops the entry up to 64, its own attach target.)
    Request* p2 = add(82, 50);
    p2->spec.prefix_id = 7;
    p2->spec.prefix_tokens = 64;
    s.enqueue(p2);
    complete(s, s.schedule(0.2), 0.3);
    EXPECT_EQ(cache_.prefix_hit_tokens(), 63);

    // Decode both until the pool is exhausted and P2 (most recently
    // admitted) is recompute-preempted, then until it re-attaches.
    double t = 0.3;
    for (int step = 0; step < 300 && p2->preemptions == 0; ++step) {
        t += 0.1;
        complete(s, s.schedule(t), t);
    }
    ASSERT_GE(p2->preemptions, 1) << "test setup: P2 was never preempted";
    for (int step = 0; step < 300 && !p2->prefix_attached; ++step) {
        t += 0.1;
        complete(s, s.schedule(t), t);
    }
    ASSERT_TRUE(p2->prefix_attached) << "P2 never resumed";

    // The resume re-attached the entry but must not re-count the hit.
    EXPECT_EQ(cache_.prefix_hit_tokens(), 63);
}

// ---- Migrated admission keeps the prefill pass's FCFS rule -----------------

class SchedulerMigratedTest : public SchedulerBudgetTest
{
  protected:
    SchedulerMigratedTest() : SchedulerBudgetTest(8 * 16) {}
};

TEST_F(SchedulerMigratedTest, CacheBlockedMigratedRequestBlocksItsClass)
{
    auto s = make({.max_batched_tokens = 512});
    // First migrated request fills the pool; the second does not fit and
    // the third (smaller, same class) must not jump it — intra-class FCFS,
    // matching the prefill pass.
    Request* big = add_prefilled(96, 50);
    s.enqueue(big);
    Request* blocked = add_prefilled(64, 50);
    s.enqueue(blocked);
    Request* small = add_prefilled(16, 50);
    s.enqueue(small);

    const BatchPlan plan = s.schedule(0.0);
    EXPECT_EQ(big->state, RequestState::kDecode);
    EXPECT_EQ(blocked->state, RequestState::kWaiting);
    EXPECT_EQ(small->state, RequestState::kWaiting)
        << "a smaller migrated request jumped a cache-blocked one";
    EXPECT_EQ(plan.chunks.size(), 1u);
}

TEST_F(SchedulerMigratedTest, CacheBlockedMigratedRequestDoesNotBlockArrivals)
{
    auto s = make({.max_batched_tokens = 512});
    // 8 blocks: the first migrated request takes 5 (6 once it decodes),
    // the second needs 4 and waits. A later ordinary arrival still gets
    // the remaining space — migrated blocking holds only among migrated
    // requests.
    Request* resident = add_prefilled(80, 50);
    s.enqueue(resident);
    Request* blocked = add_prefilled(64, 50);
    s.enqueue(blocked);
    Request* fresh = add(16, 4);
    s.enqueue(fresh);

    const BatchPlan plan = s.schedule(0.0);
    EXPECT_EQ(resident->state, RequestState::kDecode);
    EXPECT_EQ(blocked->state, RequestState::kWaiting);
    EXPECT_EQ(fresh->state, RequestState::kPrefill)
        << "a cache-blocked migrated request stalled a later arrival";
    ASSERT_EQ(plan.chunks.size(), 2u);
    EXPECT_EQ(plan.chunks[1].request, fresh);
    EXPECT_EQ(plan.chunks[1].new_tokens, 16);
}

} // namespace
} // namespace shiftpar::engine

// ---- Disaggregated decode under cache pressure -----------------------------

namespace shiftpar {
namespace {

TEST(DisaggregatedDecode, MigratedAdmissionConservesRequests)
{
    // Small decode pool + many concurrent migrated requests: admission is
    // cache-limited, exercising the blocked-flag path end to end. Every
    // request must still finish exactly once with sane metrics.
    Rng rng(42);
    const auto reqs = workload::make_requests(
        workload::poisson_arrivals(rng, 4.0, 30.0), rng,
        workload::lognormal_size(6000.0, 0.8, 200.0, 0.5));

    core::DisaggregatedOptions opts;
    opts.prefill_gpus = 4;
    opts.decode_gpus = 2;
    core::DisaggregatedSystem sys(model::llama_70b(), hw::h200_node(),
                                  opts);
    const engine::Metrics met = sys.run_workload(reqs);
    ASSERT_EQ(met.requests().size(), reqs.size());
    for (const auto& rec : met.requests()) {
        EXPECT_GT(rec.ttft, 0.0);
        EXPECT_GE(rec.completion, rec.ttft - 1e-12);
    }
}

} // namespace
} // namespace shiftpar
