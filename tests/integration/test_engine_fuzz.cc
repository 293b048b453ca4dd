/**
 * @file
 * Randomized stress tests: replay random workloads through random valid
 * deployments and check the engine's global invariants — every request
 * finishes exactly once with sane metrics, the KV cache drains to empty,
 * time moves forward, and runs are deterministic under a fixed seed.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/bench_common.h"
#include "common/sweep.h"
#include "common/test_helpers.h"
#include "core/deployment.h"
#include "model/presets.h"
#include "workload/arrival.h"
#include "workload/synthetic.h"

namespace shiftpar {
namespace {

/** Draw a random-but-valid deployment for `m`. */
core::Deployment
random_deployment(Rng& rng, const model::ModelConfig& m)
{
    core::Deployment d;
    d.model = m;
    const int pick = static_cast<int>(rng.uniform_int(0, 3));
    d.strategy = pick == 0   ? parallel::Strategy::kDp
                 : pick == 1 ? parallel::Strategy::kTp
                 : pick == 2 ? parallel::Strategy::kSp
                             : parallel::Strategy::kShift;
    d.sched.max_batched_tokens = 1 << rng.uniform_int(9, 14);
    d.sched.max_running_seqs = rng.uniform_int(4, 256);
    if (rng.bernoulli(0.3))
        d.sched.decode_tokens_per_step = rng.uniform_int(2, 4);
    if (rng.bernoulli(0.3))
        d.swiftkv = core::SwiftKv{};
    return d;
}

/** Random workload, possibly with shared prefixes. */
std::vector<engine::RequestSpec>
random_workload(Rng& rng)
{
    const int n = static_cast<int>(rng.uniform_int(5, 80));
    std::vector<engine::RequestSpec> reqs;
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
        t += rng.exponential(2.0);
        engine::RequestSpec r;
        r.arrival = t;
        r.prompt_tokens = rng.uniform_int(1, 20000);
        r.output_tokens = rng.uniform_int(1, 500);
        if (rng.bernoulli(0.3)) {
            r.prefix_id = rng.uniform_int(0, 3);
            r.prefix_tokens = rng.uniform_int(0, r.prompt_tokens);
        }
        reqs.push_back(r);
    }
    return reqs;
}

class EngineFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineFuzz, InvariantsHoldOnRandomRuns)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
    const auto m =
        rng.bernoulli(0.5) ? model::llama_70b() : model::qwen_32b();
    auto d = random_deployment(rng, m);
    const auto reqs = random_workload(rng);
    shiftpar::testing::StepLog log;
    d.trace = &log;

    auto router = core::build(d);
    const engine::Metrics met = router->run_workload(reqs);

    // 1. Conservation: every request finished exactly once.
    ASSERT_EQ(met.requests().size(), reqs.size());
    std::map<engine::RequestId, int> seen;
    for (const auto& rec : met.requests())
        ++seen[rec.id];
    for (const auto& [rid, count] : seen)
        EXPECT_EQ(count, 1) << "request " << rid;

    // 2. Sane per-request metrics.
    for (const auto& rec : met.requests()) {
        EXPECT_GE(rec.wait, -1e-9);
        EXPECT_GT(rec.ttft, 0.0);
        EXPECT_GE(rec.tpot, 0.0);
        EXPECT_GE(rec.completion, rec.ttft - 1e-12);
    }

    // 3. Cache fully drained on every replica: no request holds blocks;
    //    only retained prefix entries may still occupy memory.
    for (std::size_t e = 0; e < router->size(); ++e) {
        const auto& cache = router->engine(e).cache();
        EXPECT_EQ(cache.num_requests(), 0u);
        if (cache.prefix_entry_count() == 0) {
            const std::int64_t all_blocks = cache.token_capacity() / 16;
            EXPECT_EQ(cache.free_tokens(), all_blocks * 16);
        }
    }

    // 4. Steps are time-ordered per engine with positive durations.
    std::int64_t steps = 0;
    for (std::size_t e = 0; e < router->size(); ++e) {
        double prev = 0.0;
        const auto engine_steps = log.of(router->engine(e).trace_id());
        steps += static_cast<std::int64_t>(engine_steps.size());
        for (const auto& s : engine_steps) {
            EXPECT_GE(s.start, prev - 1e-12);
            EXPECT_GT(s.end, s.start);
            prev = s.end;
        }
    }
    EXPECT_EQ(steps, met.sp_steps() + met.tp_steps());
}

TEST_P(EngineFuzz, DeterministicUnderFixedSeed)
{
    const auto run_once = [&]() {
        Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
        const auto d = random_deployment(rng, model::qwen_32b());
        const auto reqs = random_workload(rng);
        const auto met = core::run_deployment(d, reqs);
        return std::pair{met.completion().sum(), met.total_tokens()};
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_DOUBLE_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range(0, 24));

TEST(EngineFuzzSweep, ParallelSweepYieldsIdenticalMetrics)
{
    // Random-but-index-derived deployments replayed through run_sweep:
    // the Metrics each point produces must not depend on --jobs.
    const auto sweep_once = [](int jobs) {
        bench::detail::set_jobs(jobs);
        std::vector<std::pair<double, std::int64_t>> out(8);
        bench::run_sweep(out.size(), [&](std::size_t i) {
            Rng rng(1000 + 37 * static_cast<std::uint64_t>(i));
            const auto d = random_deployment(rng, model::qwen_32b());
            const auto reqs = random_workload(rng);
            const auto met = core::run_deployment(d, reqs);
            const auto val =
                std::pair{met.completion().sum(), met.total_tokens()};
            return bench::SweepCommit([&out, i, val] { out[i] = val; });
        });
        return out;
    };
    const auto seq = sweep_once(1);
    const auto par = sweep_once(4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_DOUBLE_EQ(seq[i].first, par[i].first) << "point " << i;
        EXPECT_EQ(seq[i].second, par[i].second) << "point " << i;
    }
}

} // namespace
} // namespace shiftpar
