/**
 * @file
 * Metrics edge cases: merge with empty operands, self-merge, merge
 * equivalence with direct accumulation, mismatched bin widths, and
 * zero-duration throughput / goodput queries.
 */

#include <gtest/gtest.h>

#include "engine/metrics.h"

using namespace shiftpar;
using engine::Metrics;
using engine::RequestRecord;
using engine::SloSpec;

namespace {

RequestRecord
record(engine::RequestId id, double ttft, double tpot)
{
    RequestRecord rec;
    rec.id = id;
    rec.arrival = 0.0;
    rec.prompt_tokens = 100;
    rec.output_tokens = 20;
    rec.ttft = ttft;
    rec.tpot = tpot;
    rec.completion = ttft + tpot * 19;
    rec.wait = ttft / 2;
    return rec;
}

obs::StepEvent
step(double start, double end, std::int64_t tokens, int sp)
{
    obs::StepEvent s;
    s.start = start;
    s.end = end;
    s.batched_tokens = tokens;
    s.num_seqs = 1;
    s.cfg = {sp, 1};
    return s;
}

} // namespace

TEST(Metrics, MergeEmptyIsNoop)
{
    Metrics m(1.0);
    m.add_record(record(0, 0.1, 0.02));
    m.on_step(step(0.0, 1.0, 120, 4));

    const Metrics empty(1.0);
    m.merge(empty);
    EXPECT_EQ(m.requests().size(), 1u);
    EXPECT_EQ(m.sp_steps(), 1);
    EXPECT_EQ(m.tp_steps(), 0);
    EXPECT_EQ(m.total_tokens(), 120);
    EXPECT_DOUBLE_EQ(m.end_time(), 1.0);
}

TEST(Metrics, MergeIntoEmptyReproducesSource)
{
    Metrics src(1.0);
    src.add_record(record(0, 0.1, 0.02));
    src.add_record(record(1, 0.3, 0.04));
    src.on_step(step(0.0, 1.5, 200, 4));
    src.on_step(step(1.5, 2.0, 40, 1));

    Metrics dst(1.0);
    dst.merge(src);
    EXPECT_EQ(dst.requests().size(), src.requests().size());
    EXPECT_EQ(dst.total_tokens(), src.total_tokens());
    EXPECT_DOUBLE_EQ(dst.end_time(), src.end_time());
    EXPECT_DOUBLE_EQ(dst.mean_throughput(), src.mean_throughput());
    EXPECT_EQ(dst.sp_steps(), src.sp_steps());
    EXPECT_EQ(dst.tp_steps(), src.tp_steps());
    EXPECT_DOUBLE_EQ(dst.ttft().percentile(50), src.ttft().percentile(50));
}

TEST(Metrics, MergeMatchesDirectAccumulation)
{
    Metrics a(1.0), b(1.0), direct(1.0);
    for (int i = 0; i < 20; ++i) {
        const RequestRecord rec = record(i, 0.05 * (i + 1), 0.01);
        const obs::StepEvent s =
            step(i * 0.5, i * 0.5 + 0.4, 64 + i, i % 2 ? 4 : 1);
        ((i % 2 == 0) ? a : b).add_record(rec);
        ((i % 2 == 0) ? a : b).on_step(s);
        direct.add_record(rec);
        direct.on_step(s);
    }
    // A late step gives the merged-in series more bins than the target.
    b.on_step(step(12.0, 12.5, 30, 1));
    direct.on_step(step(12.0, 12.5, 30, 1));
    ASSERT_GT(b.throughput().num_bins(), a.throughput().num_bins());
    a.merge(b);
    EXPECT_EQ(a.requests().size(), direct.requests().size());
    EXPECT_EQ(a.total_tokens(), direct.total_tokens());
    EXPECT_DOUBLE_EQ(a.end_time(), direct.end_time());
    EXPECT_DOUBLE_EQ(a.mean_throughput(), direct.mean_throughput());
    EXPECT_DOUBLE_EQ(a.ttft().percentile(90), direct.ttft().percentile(90));
    EXPECT_DOUBLE_EQ(a.completion().sum(), direct.completion().sum());
    EXPECT_DOUBLE_EQ(a.throughput().peak_rate(),
                     direct.throughput().peak_rate());
    ASSERT_EQ(a.throughput().num_bins(), direct.throughput().num_bins());
    for (std::size_t i = 0; i < direct.throughput().num_bins(); ++i)
        EXPECT_EQ(a.throughput().bin_value(i),
                  direct.throughput().bin_value(i))
            << "bin " << i;
    EXPECT_EQ(a.sp_steps(), direct.sp_steps());
    EXPECT_EQ(a.tp_steps(), direct.tp_steps());
}

TEST(Metrics, MergeWithDifferentBinWidthsPanics)
{
    Metrics a(1.0);
    Metrics b(0.5);
    b.on_step(step(0.0, 1.0, 10, 1));
    EXPECT_DEATH(a.merge(b), "different bin widths");
}

TEST(Metrics, SelfMergeIsRejected)
{
    Metrics m(1.0);
    m.add_record(record(0, 0.1, 0.02));
    EXPECT_DEATH(m.merge(m), "itself");
}

TEST(Metrics, ZeroDurationRunHasZeroThroughput)
{
    Metrics m(1.0);
    EXPECT_EQ(m.mean_throughput(), 0.0);

    // Records without any step telemetry: end_time stays 0; throughput
    // and goodput must not divide by zero.
    m.add_record(record(0, 0.1, 0.02));
    EXPECT_EQ(m.end_time(), 0.0);
    EXPECT_EQ(m.mean_throughput(), 0.0);
    EXPECT_EQ(m.goodput({1.0, 1.0}), 0.0);
}

TEST(Metrics, EmptyMetricsSloQueriesAreZero)
{
    const Metrics m(1.0);
    const SloSpec slo{0.5, 0.05};
    EXPECT_EQ(m.slo_attainment(slo), 0.0);
    EXPECT_EQ(m.goodput(slo), 0.0);
}

TEST(Metrics, ZeroWidthStepIsAccepted)
{
    // A degenerate (instantaneous) step must not corrupt the timeline.
    Metrics m(1.0);
    m.on_step(step(2.0, 2.0, 10, 1));
    EXPECT_DOUBLE_EQ(m.end_time(), 2.0);
    EXPECT_DOUBLE_EQ(m.mean_throughput(), 5.0);
}

TEST(Metrics, MalformedStepIsRejected)
{
    Metrics m(1.0);
    EXPECT_DEATH(m.on_step(step(2.0, 1.0, 10, 1)), "malformed");
}

TEST(Metrics, GoodputCountsOnlySloSatisfyingTokens)
{
    Metrics m(1.0);
    m.add_record(record(0, 0.1, 0.01));  // meets SLO
    m.add_record(record(1, 9.0, 0.01));  // TTFT violation
    m.on_step(step(0.0, 10.0, 240, 4));

    const SloSpec slo{0.5, 0.05};
    EXPECT_DOUBLE_EQ(m.slo_attainment(slo), 0.5);
    // Only request 0's 120 tokens count, over the 10 s makespan.
    EXPECT_DOUBLE_EQ(m.goodput(slo), 12.0);
}
