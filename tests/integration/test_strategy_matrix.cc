/**
 * @file
 * Full-matrix integration sweep: every Table 4 model under every strategy
 * serves a mixed workload correctly, and the Table 1/2 perf-model
 * orderings hold for every model (not just the calibrated dense pair).
 */

#include <gtest/gtest.h>

#include "core/deployment.h"
#include "model/presets.h"
#include "parallel/perf_model.h"
#include "workload/arrival.h"
#include "workload/synthetic.h"

namespace shiftpar {
namespace {

model::ModelConfig
model_by_name(const std::string& name)
{
    for (const auto& m : model::table4_models())
        if (m.name == name)
            return m;
    ADD_FAILURE() << "unknown model " << name;
    return model::llama_70b();
}

class StrategyMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
  protected:
    model::ModelConfig
    model() const
    {
        return model_by_name(std::get<0>(GetParam()));
    }

    parallel::Strategy
    strategy() const
    {
        return parallel::parse_strategy(std::get<1>(GetParam()));
    }
};

TEST_P(StrategyMatrix, ServesMixedWorkloadCorrectly)
{
    core::Deployment d;
    d.model = model();
    d.strategy = strategy();
    const auto resolved = core::resolve(d);
    EXPECT_TRUE(resolved.memory.fits());

    Rng rng(17);
    const auto reqs = workload::make_requests(
        workload::poisson_arrivals(rng, 3.0, 20.0), rng,
        workload::lognormal_size(2000.0, 0.8, 150.0, 0.5));
    const auto met = core::run_deployment(d, reqs);

    ASSERT_EQ(met.requests().size(), reqs.size());
    EXPECT_GT(met.mean_throughput(), 0.0);
    for (const auto& r : met.requests()) {
        EXPECT_GT(r.ttft, 0.0);
        EXPECT_GE(r.completion, r.ttft - 1e-12);
        EXPECT_GE(r.wait, -1e-12);
    }
    // Component accounting is self-consistent with wall-clock.
    EXPECT_GT(met.component_totals().total(), 0.0);
    EXPECT_GT(met.sp_steps() + met.tp_steps(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllStrategies, StrategyMatrix,
    ::testing::Combine(::testing::Values("Llama-70B", "Qwen-32B",
                                         "Llama-17B-16E", "Qwen-30B-A3B"),
                       ::testing::Values("dp", "tp", "sp", "shift")),
    [](const auto& info) {
        std::string n = std::get<0>(info.param) + "_" +
                        std::get<1>(info.param);
        for (auto& c : n)
            if (c == '-')
                c = '_';
        return n;
    });

class PerfOrderings : public ::testing::TestWithParam<std::string>
{
  protected:
    model::ModelConfig m_ = model_by_name(GetParam());
    parallel::PerfModel perf_{hw::h200_node(), m_};

    parallel::ParallelConfig
    sp_config() const
    {
        // The deployment resolver picks the valid full-SP-ish base.
        core::Deployment d;
        d.model = m_;
        d.strategy = parallel::Strategy::kSp;
        return core::resolve(d).base;
    }
};

TEST_P(PerfOrderings, SpPrefillNoSlowerThanTp)
{
    const auto sp = sp_config();
    EXPECT_LE(perf_.prefill_time(8192, sp),
              perf_.prefill_time(8192, {1, 8}) * 1.001);
}

TEST_P(PerfOrderings, TpDecodeNoSlowerThanSpByMuch)
{
    const auto sp = sp_config();
    EXPECT_LE(perf_.decode_step_time(1, 2048, {1, 8}),
              perf_.decode_step_time(1, 2048, sp) * 1.001);
}

TEST_P(PerfOrderings, LargeBatchFavorsSpBase)
{
    const auto sp = sp_config();
    EXPECT_LE(perf_.decode_step_time(8192, 1024, sp),
              perf_.decode_step_time(8192, 1024, {1, 8}) * 1.001);
}

TEST_P(PerfOrderings, StepTimeMonotoneInBatch)
{
    const auto sp = sp_config();
    double prev = 0.0;
    for (std::int64_t batch : {8LL, 64LL, 512LL, 4096LL}) {
        const double t = perf_.decode_step_time(batch, 1024, sp);
        EXPECT_GE(t, prev - 1e-12) << "batch " << batch;
        prev = t;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, PerfOrderings,
                         ::testing::Values("Llama-70B", "Qwen-32B",
                                           "Llama-17B-16E", "Qwen-30B-A3B"),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (auto& c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

} // namespace
} // namespace shiftpar
