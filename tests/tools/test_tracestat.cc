/**
 * @file
 * Golden-output tests for tools/tracestat: analyzing the committed trace
 * (tests/data/tracestat_golden.trace.json, regenerated by
 * tracestat_make_golden) must reproduce the committed report and CSV byte
 * for byte. Pins both the analysis and the trace writer's format — if
 * ChromeTraceWriter's vocabulary changes, this fails before any consumer
 * breaks silently. Unit tests on hand-built traces cover the edge cases
 * the golden workload cannot reach (shed, lost, open requests).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "tracestat.h"
#include "util/json_parse.h"

namespace shiftpar {
namespace {

std::string
data_path(const std::string& name)
{
    return std::string(TRACESTAT_DATA_DIR) + "/" + name;
}

std::string
slurp(const std::string& path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is) << "missing test data file " << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

TEST(TracestatGolden, ReportMatchesCommittedOutput)
{
    const tools::TraceStats stats =
        tools::analyze_trace_file(data_path("tracestat_golden.trace.json"));
    std::ostringstream os;
    tools::print_report(stats, os);
    EXPECT_EQ(os.str(), slurp(data_path("tracestat_golden.expected.txt")));
}

TEST(TracestatGolden, CsvMatchesCommittedOutput)
{
    const tools::TraceStats stats =
        tools::analyze_trace_file(data_path("tracestat_golden.trace.json"));
    std::ostringstream os;
    tools::write_csv(stats, os);
    EXPECT_EQ(os.str(), slurp(data_path("tracestat_golden.expected.csv")));
}

TEST(TracestatGolden, GoldenTraceExercisesTheInterestingPaths)
{
    const tools::TraceStats stats =
        tools::analyze_trace_file(data_path("tracestat_golden.trace.json"));
    EXPECT_GT(stats.completed, 0u);
    EXPECT_GT(stats.retries, 0);    // the faulted-dp run retried requests
    EXPECT_GT(stats.resubmits, 0);  // ... which re-entered survivor queues
    EXPECT_GT(stats.decode_shift_fraction, 0.0);  // shift run decoded shifted
    EXPECT_GT(stats.p99_requests, 0u);
    // The overload-dp run swamps a capped deployment with deadlines, a
    // cancel stream, hedged retries, and a graceful drain.
    EXPECT_GT(stats.expired, 0u);
    EXPECT_GT(stats.cancelled, 0u);
    EXPECT_GT(stats.hedges, 0);
    EXPECT_GT(stats.hedge_wins, 0);
    EXPECT_GT(stats.hedge_losses, 0);
    EXPECT_GT(stats.drains, 0);
    ASSERT_EQ(stats.stages.size(), 4u);
    EXPECT_EQ(stats.stages[0].name, "queue");
    EXPECT_EQ(stats.stages[3].name, "total");
}

/** Minimal hand-built trace JSON around the given events array. */
std::string
wrap_trace(const std::string& events)
{
    return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" + events + "]}";
}

TEST(TracestatAnalyze, RejectsNonTraceDocuments)
{
    EXPECT_THROW(tools::analyze_trace(util::parse_json("{\"a\":1}")),
                 std::runtime_error);
    EXPECT_THROW(
        tools::analyze_trace(util::parse_json(wrap_trace(
            "{\"ph\":\"b\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":\"req\","
            "\"cat\":\"request\",\"id\":\"nocolon\"}"))),
        std::runtime_error);
    // Numbers that no integer field can hold: an out-of-range pid, token
    // count and engine index each throw instead of being cast.
    EXPECT_THROW(
        tools::analyze_trace(util::parse_json(wrap_trace(
            "{\"ph\":\"i\",\"pid\":1e300,\"tid\":1,\"ts\":0,"
            "\"name\":\"shift\",\"cat\":\"mode\"}"))),
        std::runtime_error);
    EXPECT_THROW(
        tools::analyze_trace(util::parse_json(wrap_trace(
            "{\"ph\":\"b\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":\"req\","
            "\"cat\":\"request\",\"id\":\"1:0\","
            "\"args\":{\"prompt_tokens\":1e30}}"))),
        std::runtime_error);
    EXPECT_THROW(
        tools::analyze_trace(util::parse_json(wrap_trace(
            "{\"ph\":\"n\",\"pid\":1,\"tid\":0,\"ts\":0,\"s\":\"t\","
            "\"name\":\"first_token\",\"cat\":\"request\",\"id\":\"1:0\","
            "\"args\":{\"engine\":1e10}}"))),
        std::runtime_error);
}

TEST(TracestatAnalyze, StageBoundariesAndOutcomes)
{
    // One finished request with every stage marker, one shed, one open.
    const std::string events =
        "{\"ph\":\"b\",\"pid\":10000,\"tid\":0,\"ts\":0,"
        "\"name\":\"req 0\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"prompt_tokens\":100,\"engine\":0,\"span\":0}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":1000000,\"s\":\"t\","
        "\"name\":\"first_schedule\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"engine\":0,\"span\":1}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":3000000,\"s\":\"t\","
        "\"name\":\"first_token\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"engine\":0,\"span\":2}},"
        "{\"ph\":\"e\",\"pid\":10000,\"tid\":0,\"ts\":7000000,"
        "\"name\":\"req 0\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"output_tokens\":40,\"span\":3}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":500000,\"s\":\"t\","
        "\"name\":\"shed\",\"cat\":\"request\",\"id\":\"10000:1\","
        "\"args\":{\"engine\":0,\"span\":0}},"
        "{\"ph\":\"b\",\"pid\":10000,\"tid\":0,\"ts\":2000000,"
        "\"name\":\"req 2\",\"cat\":\"request\",\"id\":\"10000:2\","
        "\"args\":{\"prompt_tokens\":50,\"engine\":0,\"span\":0}}";
    const tools::TraceStats stats =
        tools::analyze_trace(util::parse_json(wrap_trace(events)));

    ASSERT_EQ(stats.requests.size(), 3u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.open, 1u);

    const tools::RequestTimeline& r = stats.requests[0];
    EXPECT_EQ(std::string(r.outcome()), "finished");
    EXPECT_DOUBLE_EQ(r.queue_s(), 1.0);
    EXPECT_DOUBLE_EQ(r.prefill_s(), 2.0);
    EXPECT_DOUBLE_EQ(r.decode_s(), 4.0);
    EXPECT_DOUBLE_EQ(r.total_s(), 7.0);
    EXPECT_EQ(r.prompt_tokens, 100);
    EXPECT_EQ(r.output_tokens, 40);
    EXPECT_EQ(r.engine, 0);

    EXPECT_EQ(std::string(stats.requests[1].outcome()), "shed");
    EXPECT_EQ(std::string(stats.requests[2].outcome()), "open");
}

TEST(TracestatAnalyze, ShiftOverlapAttribution)
{
    // Engine 3 shifts during [2, 5); request decodes over [1, 7] on it.
    const std::string events =
        "{\"ph\":\"b\",\"pid\":10000,\"tid\":0,\"ts\":0,"
        "\"name\":\"req 0\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"prompt_tokens\":10,\"engine\":3,\"span\":0}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":0,\"s\":\"t\","
        "\"name\":\"first_schedule\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"engine\":3,\"span\":1}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":1000000,\"s\":\"t\","
        "\"name\":\"first_token\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"engine\":3,\"span\":2}},"
        "{\"ph\":\"i\",\"pid\":3,\"tid\":1,\"ts\":2000000,\"s\":\"t\","
        "\"name\":\"shift\",\"cat\":\"mode\"},"
        "{\"ph\":\"i\",\"pid\":3,\"tid\":1,\"ts\":5000000,\"s\":\"t\","
        "\"name\":\"unshift\",\"cat\":\"mode\"},"
        "{\"ph\":\"e\",\"pid\":10000,\"tid\":0,\"ts\":7000000,"
        "\"name\":\"req 0\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"output_tokens\":6,\"span\":3}}";
    const tools::TraceStats stats =
        tools::analyze_trace(util::parse_json(wrap_trace(events)));
    ASSERT_EQ(stats.requests.size(), 1u);
    EXPECT_DOUBLE_EQ(stats.requests[0].decode_s(), 6.0);
    EXPECT_DOUBLE_EQ(stats.requests[0].decode_shift_s, 3.0);
    EXPECT_DOUBLE_EQ(stats.decode_shift_fraction, 0.5);
}

TEST(TracestatAnalyze, DisruptionCounting)
{
    const std::string events =
        "{\"ph\":\"b\",\"pid\":10000,\"tid\":0,\"ts\":0,"
        "\"name\":\"req 0\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"prompt_tokens\":10,\"engine\":0,\"span\":0}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":100,\"s\":\"t\","
        "\"name\":\"preempt\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"engine\":0,\"span\":1}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":200,\"s\":\"t\","
        "\"name\":\"preempt\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"engine\":0,\"span\":2}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":300,\"s\":\"t\","
        "\"name\":\"retried\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"engine\":1,\"span\":3}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":350,\"s\":\"t\","
        "\"name\":\"resubmit\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"engine\":1,\"span\":4}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":400,\"s\":\"t\","
        "\"name\":\"migrated\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"engine\":2,\"span\":5}},"
        "{\"ph\":\"e\",\"pid\":10000,\"tid\":0,\"ts\":1000,"
        "\"name\":\"req 0\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"lost\":true,\"span\":6}}";
    const tools::TraceStats stats =
        tools::analyze_trace(util::parse_json(wrap_trace(events)));
    ASSERT_EQ(stats.requests.size(), 1u);
    EXPECT_EQ(stats.lost, 1u);
    EXPECT_EQ(stats.preempts, 2);
    EXPECT_EQ(stats.retries, 1);
    EXPECT_EQ(stats.resubmits, 1);
    EXPECT_EQ(stats.migrations, 1);
    EXPECT_EQ(std::string(stats.requests[0].outcome()), "lost");
}

TEST(TracestatAnalyze, LifecycleAttribution)
{
    // Request 0 hedges, wins, and its loser copy is cancelled; request 1
    // is drained to another replica and then expires past its deadline.
    const std::string events =
        "{\"ph\":\"b\",\"pid\":10000,\"tid\":0,\"ts\":0,"
        "\"name\":\"req 0\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"prompt_tokens\":10,\"engine\":0,\"span\":0}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":100,\"s\":\"t\","
        "\"name\":\"hedged\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"engine\":0,\"span\":1}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":500,\"s\":\"t\","
        "\"name\":\"hedge_won\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"engine\":0,\"span\":2}},"
        "{\"ph\":\"e\",\"pid\":10000,\"tid\":0,\"ts\":500,"
        "\"name\":\"req 0\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"output_tokens\":4,\"span\":3}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":600,\"s\":\"t\","
        "\"name\":\"hedge_lost\",\"cat\":\"request\",\"id\":\"10000:0\","
        "\"args\":{\"engine\":1,\"span\":4}},"
        "{\"ph\":\"b\",\"pid\":10000,\"tid\":0,\"ts\":0,"
        "\"name\":\"req 1\",\"cat\":\"request\",\"id\":\"10000:1\","
        "\"args\":{\"prompt_tokens\":20,\"engine\":1,\"span\":0}},"
        "{\"ph\":\"n\",\"pid\":10000,\"tid\":0,\"ts\":200,\"s\":\"t\","
        "\"name\":\"drained\",\"cat\":\"request\",\"id\":\"10000:1\","
        "\"args\":{\"engine\":1,\"span\":1}},"
        "{\"ph\":\"e\",\"pid\":10000,\"tid\":0,\"ts\":900,"
        "\"name\":\"req 1\",\"cat\":\"request\",\"id\":\"10000:1\","
        "\"args\":{\"expired\":true,\"span\":2}}";
    const tools::TraceStats stats =
        tools::analyze_trace(util::parse_json(wrap_trace(events)));

    ASSERT_EQ(stats.requests.size(), 2u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.expired, 1u);
    EXPECT_EQ(stats.hedges, 1);
    EXPECT_EQ(stats.hedge_wins, 1);
    EXPECT_EQ(stats.hedge_losses, 1);
    EXPECT_EQ(stats.drains, 1);
    EXPECT_EQ(std::string(stats.requests[0].outcome()), "finished");
    EXPECT_EQ(std::string(stats.requests[1].outcome()), "expired");
    EXPECT_EQ(stats.requests[1].drains, 1);
}

} // namespace
} // namespace shiftpar
