/** @file Tests for workload characterization and run-report formatting. */

#include <gtest/gtest.h>

#include "core/report.h"
#include "model/presets.h"
#include "workload/agentic.h"
#include "workload/characterize.h"
#include "workload/synthetic.h"

namespace shiftpar {
namespace {

TEST(Characterize, EmptyWorkload)
{
    const auto s = workload::characterize({});
    EXPECT_EQ(s.num_requests, 0u);
    EXPECT_DOUBLE_EQ(s.mean_rate, 0.0);
}

TEST(Characterize, BasicStats)
{
    std::vector<engine::RequestSpec> reqs;
    for (int i = 0; i < 100; ++i)
        reqs.push_back({static_cast<double>(i), 1000, 100});
    const auto s = workload::characterize(reqs, 10.0);
    EXPECT_EQ(s.num_requests, 100u);
    EXPECT_DOUBLE_EQ(s.duration, 99.0);
    EXPECT_NEAR(s.mean_rate, 100.0 / 99.0, 1e-9);
    EXPECT_DOUBLE_EQ(s.prompt.percentile(50), 1000.0);
    EXPECT_EQ(s.total_tokens, 110000);
    EXPECT_NEAR(s.token_rate, 110000.0 / 99.0, 1e-9);
    // Uniform arrivals: burstiness ~1.
    EXPECT_NEAR(s.burstiness, 1.0, 0.05);
    EXPECT_DOUBLE_EQ(s.prefix_fraction, 0.0);
}

TEST(Characterize, DetectsBurstiness)
{
    std::vector<engine::RequestSpec> reqs;
    // 100 requests in one second, then silence for 99 s, then one more.
    for (int i = 0; i < 100; ++i)
        reqs.push_back({0.01 * i, 100, 10});
    reqs.push_back({100.0, 100, 10});
    const auto s = workload::characterize(reqs, 10.0);
    EXPECT_GT(s.burstiness, 5.0);
}

TEST(Characterize, CountsPrefixRequests)
{
    Rng rng(3);
    const auto reqs = workload::agentic_sessions(rng, {});
    const auto s = workload::characterize(reqs);
    EXPECT_DOUBLE_EQ(s.prefix_fraction, 1.0);
}

TEST(Characterize, DescribeMentionsKeyNumbers)
{
    std::vector<engine::RequestSpec> reqs = {{0.0, 500, 50},
                                             {1.0, 500, 50}};
    const std::string text =
        workload::describe(workload::characterize(reqs));
    EXPECT_NE(text.find("2 requests"), std::string::npos);
    EXPECT_NE(text.find("prompt tokens"), std::string::npos);
    EXPECT_NE(text.find("sustained demand"), std::string::npos);
}

TEST(Report, ContainsAllSections)
{
    core::Deployment d;
    d.model = model::qwen_32b();
    d.strategy = parallel::Strategy::kShift;
    const auto resolved = core::resolve(d);
    const auto met =
        core::run_deployment(d, workload::uniform_batch(8, 1024, 32));

    core::ReportOptions opts;
    opts.slo = engine::SloSpec{2.0, 0.05};
    opts.timeline = false;
    const std::string text = core::format_report(resolved, met, opts);
    EXPECT_NE(text.find("deployment:"), std::string::npos);
    EXPECT_NE(text.find("TTFT (ms)"), std::string::npos);
    EXPECT_NE(text.find("throughput:"), std::string::npos);
    EXPECT_NE(text.find("shift/TP mode"), std::string::npos);
    EXPECT_NE(text.find("SLO"), std::string::npos);
    EXPECT_NE(text.find("goodput"), std::string::npos);
}

TEST(Report, TimelineOptional)
{
    core::Deployment d;
    d.model = model::qwen_32b();
    d.strategy = parallel::Strategy::kTp;
    const auto resolved = core::resolve(d);
    // A long-running workload so the timeline has > 1 bin.
    std::vector<engine::RequestSpec> reqs;
    for (int i = 0; i < 10; ++i)
        reqs.push_back({0.5 * i, 4096, 64});
    const auto met = core::run_deployment(d, reqs);

    core::ReportOptions with;
    with.timeline = true;
    core::ReportOptions without;
    without.timeline = false;
    EXPECT_NE(core::format_report(resolved, met, with).find("time ->"),
              std::string::npos);
    EXPECT_EQ(core::format_report(resolved, met, without).find("time ->"),
              std::string::npos);
}

TEST(ContextWindow, OverlongRequestRejected)
{
    core::Deployment d;
    d.model = model::qwen_32b();
    d.model.max_context = 4096;
    d.strategy = parallel::Strategy::kTp;
    auto router = core::build(d);
    EXPECT_DEATH(router->run_workload({{0.0, 4000, 200}}), "context window");
}

} // namespace
} // namespace shiftpar
