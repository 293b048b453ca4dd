/** @file Steady decode runs: a scheduler that takes steady steps stays
 *  step-for-step identical to one that only ever takes the full path,
 *  and the Debug oracle catches a corrupted run. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/scheduler.h"
#include "kvcache/layout.h"
#include "model/presets.h"
#include "util/rng.h"

namespace shiftpar::engine {

/** Reads and corrupts a Scheduler's steady run on purpose. */
struct SchedulerTestPeer
{
    static bool
    run_open(const Scheduler& s)
    {
        return s.run_.armed && s.run_.steps < s.run_.limit;
    }

    static std::int64_t steps(const Scheduler& s) { return s.run_.steps; }

    static void materialize(Scheduler& s) { s.materialize(); }

    static parallel::BatchWork& work(Scheduler& s) { return s.run_.work; }
};

namespace {

struct Case
{
    std::int64_t k;     ///< decode tokens per step
    int block_size;
    bool prefix;        ///< prefix caching on
    std::int64_t capacity;  ///< KV tokens; the small one forces shortages
    std::int64_t budget = 512;  ///< max_batched_tokens; 32 caps k·seqs
};

std::string
case_name(const ::testing::TestParamInfo<Case>& info)
{
    const Case& c = info.param;
    std::string name = "k";
    name += std::to_string(c.k);
    name += "_bs";
    name += std::to_string(c.block_size);
    name += c.prefix ? "_prefix_cap" : "_noprefix_cap";
    name += std::to_string(c.capacity);
    name += "_budget";
    name += std::to_string(c.budget);
    return name;
}

/** One scheduler over its own cache and its own copy of every request. */
struct Side
{
    Side(const Case& c, const SchedulerOptions& opts)
        : cache(c.capacity,
                kvcache::KvLayout::base(model::llama_70b(), {1, 8}),
                c.block_size),
          sched(opts, &cache)
    {
    }

    kvcache::CacheManager cache;
    Scheduler sched;
    std::vector<std::unique_ptr<Request>> requests;  // index == id
};

/** What one step did, in the terms the two sides must agree on. */
struct StepResult
{
    bool stepped = false;
    bool steady = false;
    parallel::BatchWork work;
    std::vector<std::pair<RequestId, double>> finished;
};

/** One engine step: `Engine::step`'s steady-first entry when
 *  `try_steady`, else always the full path. */
StepResult
step(Side& s, double t, double dt, bool try_steady)
{
    StepResult out;
    if (try_steady) {
        if (const auto work = s.sched.steady_step(t)) {
            out.stepped = out.steady = true;
            out.work = *work;
            return out;
        }
    }
    const BatchPlan plan = s.sched.schedule(t);
    if (plan.empty())
        return out;
    out.stepped = true;
    out.work = plan.work();
    std::vector<Request*> finished;
    s.sched.on_step_complete(t + dt, plan, &finished);
    for (const Request* r : finished)
        out.finished.emplace_back(r->id, r->finished);
    return out;
}

std::vector<RequestId>
ids(const std::vector<Request*>& rs)
{
    std::vector<RequestId> out;
    for (const Request* r : rs)
        out.push_back(r->id);
    return out;
}

bool
live(const Request& r)
{
    return r.state == RequestState::kWaiting ||
           r.state == RequestState::kPrefill ||
           r.state == RequestState::kDecode;
}

class SteadyDifferential : public ::testing::TestWithParam<Case>
{
};

TEST_P(SteadyDifferential, MatchesTheFullPathStepForStep)
{
    const Case& c = GetParam();
    const SchedulerOptions opts{.max_batched_tokens = c.budget,
                                .max_running_seqs = 64,
                                .decode_tokens_per_step = c.k,
                                .enable_prefix_caching = c.prefix};
    std::int64_t steady_steps = 0, shortage_ends = 0, arrivals_mid_run = 0,
                 cancels_mid_run = 0, expired = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed * 7919 + static_cast<std::uint64_t>(c.k));
        Side full(c, opts), fast(c, opts);
        // Arrivals come in bursts so the waiting queue drains between
        // them and steady runs form; some carry deadlines.
        std::vector<RequestSpec> specs;
        double burst = 0.0;
        for (int i = 0; i < 48; ++i) {
            if (i % 8 == 0)
                burst += rng.uniform(0.2, 1.5);
            RequestSpec spec;
            spec.arrival = burst + rng.uniform(0.0, 0.05);
            // Some prompts are shorter than k: a step that completes
            // them can leave more decoders than the budget has k each for.
            spec.prompt_tokens = rng.bernoulli(0.2) ? rng.uniform_int(1, 3)
                                                    : rng.uniform_int(4, 200);
            spec.output_tokens = rng.uniform_int(1, 160);
            spec.priority = static_cast<int>(rng.uniform_int(0, 1));
            if (rng.bernoulli(0.5)) {
                spec.prefix_id = rng.uniform_int(0, 2);
                spec.prefix_tokens =
                    std::min(spec.prompt_tokens, rng.uniform_int(8, 96));
            }
            if (rng.bernoulli(0.25))
                spec.deadline = spec.arrival + rng.uniform(0.1, 1.5);
            specs.push_back(spec);
        }
        for (Side* s : {&full, &fast}) {
            for (std::size_t i = 0; i < specs.size(); ++i) {
                auto r = std::make_unique<Request>();
                r->id = static_cast<RequestId>(i);
                r->spec = specs[i];
                r->prefill_target = specs[i].prompt_tokens;
                s->requests.push_back(std::move(r));
            }
        }

        const double dt = 0.01;
        std::size_t next = 0;
        double t = 0.0;
        for (int n = 0; n < 20000; ++n, t += dt) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                         std::to_string(n));
            if (next == specs.size() && !full.sched.has_work())
                break;
            const bool in_run = SchedulerTestPeer::steps(fast.sched) > 0;
            for (; next < specs.size() && specs[next].arrival <= t; ++next) {
                arrivals_mid_run += in_run;
                full.sched.enqueue(full.requests[next].get());
                fast.sched.enqueue(fast.requests[next].get());
            }
            // Cancels aim at steady runs in progress.
            if (next > 0 && rng.bernoulli(in_run ? 0.05 : 0.01)) {
                const std::int64_t last = static_cast<std::int64_t>(next) - 1;
                const auto victim =
                    static_cast<std::size_t>(rng.uniform_int(0, last));
                if (live(*full.requests[victim])) {
                    cancels_mid_run +=
                        SchedulerTestPeer::steps(fast.sched) > 0;
                    full.sched.cancel(full.requests[victim].get());
                    fast.sched.cancel(fast.requests[victim].get());
                }
            }
            const auto gone = full.sched.expire_due(t);
            ASSERT_EQ(ids(gone), ids(fast.sched.expire_due(t)));
            expired += std::ssize(gone);

            const bool could_run = SchedulerTestPeer::run_open(fast.sched);
            const StepResult a = step(full, t, dt, /*try_steady=*/false);
            const StepResult b = step(fast, t, dt, /*try_steady=*/true);
            ASSERT_FALSE(a.steady);
            steady_steps += b.steady;
            shortage_ends += could_run && !b.steady;
            ASSERT_EQ(a.stepped, b.stepped);
            ASSERT_TRUE(a.work == b.work);
            ASSERT_EQ(a.finished, b.finished);
            ASSERT_EQ(full.sched.outstanding_tokens(),
                      fast.sched.outstanding_tokens());
            ASSERT_EQ(full.cache.used_blocks(), fast.cache.used_blocks());
            ASSERT_EQ(full.sched.preemption_count(),
                      fast.sched.preemption_count());
            ASSERT_EQ(full.sched.num_running(), fast.sched.num_running());
            ASSERT_EQ(full.sched.num_waiting(), fast.sched.num_waiting());

            // Write the run back now and then (which ends it) and compare
            // every request.
            if (rng.bernoulli(0.05) || !full.sched.has_work()) {
                SchedulerTestPeer::materialize(fast.sched);
                for (std::size_t i = 0; i < specs.size(); ++i) {
                    const Request& x = *full.requests[i];
                    const Request& y = *fast.requests[i];
                    ASSERT_EQ(x.state, y.state) << "request " << i;
                    ASSERT_EQ(x.decoded, y.decoded) << "request " << i;
                    ASSERT_EQ(x.prefilled, y.prefilled) << "request " << i;
                    ASSERT_EQ(x.kv.num_tokens(), y.kv.num_tokens())
                        << "request " << i;
                    ASSERT_EQ(x.kv.num_blocks(), y.kv.num_blocks())
                        << "request " << i;
                    ASSERT_EQ(x.finished, y.finished) << "request " << i;
                }
                ASSERT_TRUE(full.sched.consistent());
                ASSERT_TRUE(fast.sched.consistent());
            }
        }
        EXPECT_FALSE(full.sched.has_work()) << "seed " << seed;
        EXPECT_EQ(next, specs.size());
    }
    // The stream must have exercised what it is here to exercise.
    EXPECT_GT(steady_steps, 0);
    EXPECT_GT(arrivals_mid_run, 0);
    EXPECT_GT(cancels_mid_run, 0);
    EXPECT_GT(expired, 0);
    if (c.capacity < 4096) {
        EXPECT_GT(shortage_ends, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    KBlocksPrefixPool, SteadyDifferential,
    ::testing::Values(Case{1, 16, false, 768}, Case{1, 16, true, 768},
                      Case{1, 1, false, 768}, Case{1, 1, true, 768},
                      Case{2, 16, false, 768}, Case{2, 16, true, 768},
                      Case{2, 1, true, 768}, Case{3, 16, false, 768},
                      Case{3, 16, true, 768}, Case{3, 1, false, 768},
                      Case{1, 16, true, 1 << 16}, Case{3, 16, true, 1 << 16},
                      Case{2, 16, false, 1 << 16, 32},
                      Case{3, 1, true, 1 << 16, 32}),
    case_name);

TEST(SteadyRun, NotTakenWhenKTokensEachOverrunTheBudget)
{
    // Three one-token prompts complete prefill in one step; two decode
    // tokens each would then need 6 > 5 batched tokens, so the next step
    // is a full one whose budget clips the last request to one token.
    kvcache::CacheManager cache(
        4096, kvcache::KvLayout::base(model::llama_70b(), {1, 8}), 16);
    Scheduler s({.max_batched_tokens = 5, .decode_tokens_per_step = 2},
                &cache);
    std::vector<std::unique_ptr<Request>> requests;
    for (int i = 0; i < 3; ++i) {
        auto r = std::make_unique<Request>();
        r->id = i;
        r->spec = {0.0, 1, 10};
        r->prefill_target = 1;
        s.enqueue(r.get());
        requests.push_back(std::move(r));
    }
    std::vector<Request*> finished;
    s.on_step_complete(0.1, s.schedule(0.0), &finished);
    ASSERT_EQ(s.num_running(), 3u);
    EXPECT_FALSE(s.steady_step(0.1).has_value());
    EXPECT_EQ(s.schedule(0.1).work().total_new_tokens(), 5);
}

#ifndef NDEBUG

// The oracle is an SP_DEBUG_ASSERT, compiled out under NDEBUG, so this
// death test exists only in Debug builds (the sanitizer CI job's).

TEST(SteadyRunDeathTest, OracleCatchesACorruptedRun)
{
    kvcache::CacheManager cache(
        4096, kvcache::KvLayout::base(model::llama_70b(), {1, 8}), 16);
    Scheduler s({.max_batched_tokens = 512}, &cache);
    std::vector<std::unique_ptr<Request>> requests;
    for (std::int64_t prompt : {20, 40}) {
        auto r = std::make_unique<Request>();
        r->id = std::ssize(requests);
        r->spec = {0.0, prompt, 50};
        r->prefill_target = prompt;
        s.enqueue(r.get());
        requests.push_back(std::move(r));
    }
    // Step 1 prefills both; step 2 decodes both and arms the run.
    std::vector<Request*> finished;
    for (double t : {0.0, 0.1}) {
        s.on_step_complete(t + 0.1, s.schedule(t), &finished);
        ASSERT_TRUE(finished.empty());
    }
    ASSERT_TRUE(s.steady_step(0.2).has_value());
    ASSERT_TRUE(s.consistent());
    SchedulerTestPeer::work(s).decodes.pairs += 1;
    EXPECT_FALSE(s.consistent());
    EXPECT_DEATH(s.steady_step(0.3), "steady run drifted");
}

#endif  // !NDEBUG

} // namespace
} // namespace shiftpar::engine
