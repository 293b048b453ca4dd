/** @file Tests for SLO attainment and goodput accounting. */

#include <gtest/gtest.h>

#include "engine/metrics.h"

namespace shiftpar::engine {
namespace {

RequestRecord
record(double ttft, double tpot, std::int64_t prompt, std::int64_t output)
{
    RequestRecord r;
    r.prompt_tokens = prompt;
    r.output_tokens = output;
    r.ttft = ttft;
    r.tpot = tpot;
    r.completion = ttft + tpot * static_cast<double>(output);
    return r;
}

TEST(Slo, EmptyMetrics)
{
    Metrics m(1.0);
    EXPECT_DOUBLE_EQ(m.slo_attainment({1.0, 0.05}), 0.0);
    EXPECT_DOUBLE_EQ(m.goodput({1.0, 0.05}), 0.0);
}

TEST(Slo, AttainmentCountsBothBounds)
{
    Metrics m(1.0);
    m.add_record(record(0.5, 0.01, 100, 10));  // meets both
    m.add_record(record(3.0, 0.01, 100, 10));  // TTFT violation
    m.add_record(record(0.5, 0.20, 100, 10));  // TPOT violation
    m.add_record(record(3.0, 0.20, 100, 10));  // both violated
    EXPECT_DOUBLE_EQ(m.slo_attainment({1.0, 0.05}), 0.25);
}

TEST(Slo, SingleTokenRequestsIgnoreTpot)
{
    Metrics m(1.0);
    m.add_record(record(0.5, 0.0, 100, 1));  // TPOT undefined for 1 token
    EXPECT_DOUBLE_EQ(m.slo_attainment({1.0, 0.001}), 1.0);
}

TEST(Slo, GoodputCountsOnlySatisfyingTokens)
{
    Metrics m(1.0);
    m.add_record(record(0.5, 0.01, 1000, 100));  // ok: 1100 tokens
    m.add_record(record(9.0, 0.01, 5000, 100));  // violates TTFT
    obs::StepEvent step;
    step.start = 0.0;
    step.end = 10.0;  // makespan 10 s
    step.batched_tokens = 6200;
    m.on_step(step);
    EXPECT_DOUBLE_EQ(m.goodput({1.0, 0.05}), 110.0);
    EXPECT_DOUBLE_EQ(m.mean_throughput(), 620.0);
}

TEST(Slo, LooserSloNeverLowersAttainment)
{
    Metrics m(1.0);
    for (int i = 0; i < 20; ++i)
        m.add_record(record(0.1 * i, 0.002 * i, 100, 10));
    const double tight = m.slo_attainment({0.5, 0.01});
    const double loose = m.slo_attainment({1.5, 0.03});
    EXPECT_LE(tight, loose);
}

} // namespace
} // namespace shiftpar::engine
