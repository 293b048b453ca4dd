/**
 * @file
 * Algorithm 2 conformance: every step the engine executes under a Shift
 * deployment must obey the threshold rule exactly — batched tokens above
 * the threshold run the base (SP) configuration, at-or-below run the
 * SP_TP-ordered full-TP shift configuration — and the KV cache layout
 * must be shared across every switch.
 */

#include <gtest/gtest.h>

#include "common/test_helpers.h"
#include "core/deployment.h"
#include "kvcache/layout.h"
#include "model/presets.h"
#include "workload/arrival.h"
#include "workload/synthetic.h"

namespace shiftpar {
namespace {

TEST(ShiftConformance, EveryStepObeysTheThreshold)
{
    core::Deployment d;
    d.model = model::llama_70b();
    d.strategy = parallel::Strategy::kShift;
    shiftpar::testing::StepLog log;
    d.trace = &log;
    const auto resolved = core::resolve(d);
    const std::int64_t threshold = resolved.shift_threshold;
    ASSERT_GT(threshold, 0);

    // Mixed traffic guarantees both small decode batches and big prefill
    // chunks.
    Rng rng(5);
    const auto reqs = workload::make_requests(
        workload::poisson_arrivals(rng, 2.0, 40.0), rng,
        workload::lognormal_size(5000.0, 0.8, 200.0, 0.5));

    auto router = core::build(d);
    const auto met = router->run_workload(reqs);

    std::int64_t base_steps = 0;
    std::int64_t shift_steps = 0;
    ASSERT_EQ(router->size(), 1u);
    for (const auto& step : log.steps) {
        if (step.batched_tokens > threshold) {
            EXPECT_EQ(step.cfg, resolved.base)
                << "batch " << step.batched_tokens;
            ++base_steps;
        } else {
            EXPECT_EQ(step.cfg, resolved.base.shift_config())
                << "batch " << step.batched_tokens;
            ++shift_steps;
        }
    }
    // The workload must actually exercise both branches.
    EXPECT_GT(base_steps, 0);
    EXPECT_GT(shift_steps, 0);
    EXPECT_EQ(met.requests().size(), reqs.size());
}

TEST(ShiftConformance, ManualThresholdIsHonored)
{
    core::Deployment d;
    d.model = model::qwen_32b();
    d.strategy = parallel::Strategy::kShift;
    d.shift_threshold = 64;  // far below the auto value
    shiftpar::testing::StepLog log;
    d.trace = &log;
    const auto resolved = core::resolve(d);
    EXPECT_EQ(resolved.shift_threshold, 64);

    auto router = core::build(d);
    router->run_workload(workload::uniform_batch(8, 2048, 16));
    ASSERT_EQ(router->size(), 1u);
    ASSERT_FALSE(log.steps.empty());
    for (const auto& step : log.steps) {
        if (step.batched_tokens > 64)
            EXPECT_EQ(step.cfg.sp, resolved.base.sp);
        else
            EXPECT_EQ(step.cfg.sp, 1);
    }
}

TEST(ShiftConformance, ThresholdZeroNeverShifts)
{
    core::Deployment d;
    d.model = model::qwen_32b();
    d.strategy = parallel::Strategy::kShift;
    d.shift_threshold = 0;  // batches > 0 always run the base
    auto router = core::build(d);
    const auto met = router->run_workload({{0.0, 512, 32}});
    EXPECT_EQ(met.tp_steps(), 0);
    EXPECT_GT(met.sp_steps(), 0);
}

TEST(ShiftConformance, SwitchIsKvInvariantForEveryBase)
{
    // Every auto-resolved shift deployment's two configurations must share
    // one cache layout (the engine asserts this; verify it directly too).
    for (const auto& m : model::table4_models()) {
        core::Deployment d;
        d.model = m;
        d.strategy = parallel::Strategy::kShift;
        const auto r = core::resolve(d);
        const auto base = kvcache::KvLayout::base(m, r.base);
        const auto shift = kvcache::KvLayout::shift(m, r.base);
        EXPECT_TRUE(base.invariant_with(shift)) << m.name;
        EXPECT_DOUBLE_EQ(
            kvcache::switch_cost_bytes(m, base, shift, 1 << 20), 0.0)
            << m.name;
    }
}

TEST(ShiftConformance, ShiftStepsDominateLowTraffic)
{
    // One lone request: prefill chunks exceed the threshold (base mode),
    // all decode steps are batch 1 (shift mode).
    core::Deployment d;
    d.model = model::llama_70b();
    d.strategy = parallel::Strategy::kShift;
    auto router = core::build(d);
    const auto met = router->run_workload({{0.0, 8192, 100}});
    EXPECT_GE(met.sp_steps(), 1);         // the 8k prefill chunk(s)
    EXPECT_GE(met.tp_steps(), 99);        // every decode token
}

} // namespace
} // namespace shiftpar
