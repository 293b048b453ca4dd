/**
 * @file
 * obs::ReportJson — schema-versioned run reports: document structure,
 * metric fidelity, SLO evaluation, and null handling.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/json_checker.h"
#include "engine/metrics.h"
#include "obs/report_json.h"

using namespace shiftpar;
using shiftpar::testing::parse_json;

namespace {

/** Metrics with a handful of known records and one step. */
engine::Metrics
sample_metrics()
{
    engine::Metrics m(1.0);
    for (int i = 0; i < 10; ++i) {
        engine::RequestRecord rec;
        rec.id = i;
        rec.arrival = 0.5 * i;
        rec.prompt_tokens = 100;
        rec.output_tokens = 10;
        rec.ttft = 0.1 * (i + 1);
        rec.tpot = 0.02;
        rec.completion = 1.0 + 0.1 * i;
        rec.wait = 0.05;
        m.add_record(rec);
    }
    obs::StepEvent step;
    step.start = 0.0;
    step.end = 6.0;
    step.batched_tokens = 1100;
    step.num_seqs = 10;
    step.cfg = {4, 2};
    m.on_step(step);
    return m;
}

} // namespace

TEST(ReportJson, DocumentCarriesSchemaAndVersion)
{
    obs::ReportJson report("Fig X");
    report.add_run("shift", sample_metrics());
    std::ostringstream os;
    report.write(os);

    const auto doc = parse_json(os.str());
    EXPECT_EQ(doc.at("schema").str(), obs::kReportSchemaName);
    EXPECT_EQ(doc.at("version").num(),
              static_cast<double>(obs::kReportSchemaVersion));
    EXPECT_EQ(doc.at("title").str(), "Fig X");
    ASSERT_EQ(doc.at("runs").arr().size(), 1u);
}

TEST(ReportJson, MetricsMatchTheSource)
{
    const engine::Metrics m = sample_metrics();
    obs::ReportJson report;
    report.add_run("shift", m);
    std::ostringstream os;
    report.write(os);

    const auto run = parse_json(os.str()).at("runs").arr()[0];
    EXPECT_EQ(run.at("name").str(), "shift");
    EXPECT_TRUE(run.at("deployment").is_null());

    const auto& met = run.at("metrics");
    EXPECT_EQ(met.at("requests").num(), 10.0);
    EXPECT_EQ(met.at("total_tokens").num(),
              static_cast<double>(m.total_tokens()));
    EXPECT_DOUBLE_EQ(met.at("duration_s").num(), m.end_time());
    EXPECT_DOUBLE_EQ(met.at("mean_throughput_tok_s").num(),
                     m.mean_throughput());
    const auto& ttft = met.at("ttft_s");
    EXPECT_DOUBLE_EQ(ttft.at("p50").num(), m.ttft().percentile(50));
    EXPECT_DOUBLE_EQ(ttft.at("p99").num(), m.ttft().percentile(99));
    EXPECT_DOUBLE_EQ(ttft.at("mean").num(), m.ttft().mean());
    EXPECT_DOUBLE_EQ(ttft.at("min").num(), m.ttft().min());
    EXPECT_DOUBLE_EQ(ttft.at("max").num(), m.ttft().max());
    EXPECT_EQ(ttft.at("count").num(), 10.0);
    EXPECT_TRUE(met.at("slo").is_null());
}

TEST(ReportJson, DeploymentAndSloBlocks)
{
    obs::RunDeploymentInfo info;
    info.description = "1 engine(s) x (SP=4,TP=2)";
    info.sp = 4;
    info.tp = 2;
    info.replicas = 1;
    info.shift_threshold = 1536;

    engine::SloSpec slo;
    slo.ttft = 0.5;
    slo.tpot = 0.05;

    const engine::Metrics m = sample_metrics();
    obs::ReportJson report("Fig Y");
    report.add_run("shift", m, info, slo);
    std::ostringstream os;
    report.write(os);

    const auto run = parse_json(os.str()).at("runs").arr()[0];
    const auto& dep = run.at("deployment");
    EXPECT_EQ(dep.at("sp").num(), 4.0);
    EXPECT_EQ(dep.at("tp").num(), 2.0);
    EXPECT_EQ(dep.at("replicas").num(), 1.0);
    EXPECT_EQ(dep.at("shift_threshold").num(), 1536.0);
    EXPECT_EQ(dep.at("description").str(), "1 engine(s) x (SP=4,TP=2)");

    const auto& slo_out = run.at("metrics").at("slo");
    EXPECT_DOUBLE_EQ(slo_out.at("ttft_s").num(), 0.5);
    EXPECT_DOUBLE_EQ(slo_out.at("tpot_s").num(), 0.05);
    EXPECT_DOUBLE_EQ(slo_out.at("attainment").num(), m.slo_attainment(slo));
    EXPECT_DOUBLE_EQ(slo_out.at("goodput_tok_s").num(), m.goodput(slo));
}

TEST(ReportJson, MultipleRunsKeepOrder)
{
    obs::ReportJson report;
    report.add_run("DP", sample_metrics());
    report.add_run("TP", sample_metrics());
    report.add_run("Shift", sample_metrics());
    EXPECT_EQ(report.num_runs(), 3u);

    std::ostringstream os;
    report.write(os);
    const auto runs = parse_json(os.str()).at("runs").arr();
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].at("name").str(), "DP");
    EXPECT_EQ(runs[1].at("name").str(), "TP");
    EXPECT_EQ(runs[2].at("name").str(), "Shift");
}

TEST(ReportJson, EmptyMetricsRunIsRepresentable)
{
    obs::ReportJson report;
    report.add_run("empty", engine::Metrics(1.0));
    std::ostringstream os;
    report.write(os);
    const auto met = parse_json(os.str()).at("runs").arr()[0].at("metrics");
    EXPECT_EQ(met.at("requests").num(), 0.0);
    EXPECT_EQ(met.at("mean_throughput_tok_s").num(), 0.0);
    EXPECT_EQ(met.at("ttft_s").at("count").num(), 0.0);
}
