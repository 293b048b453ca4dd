#include "obs/report_json.h"

#include <filesystem>
#include <fstream>

#include "util/json.h"
#include "util/logging.h"

namespace shiftpar::obs {

ReportJson::ReportJson(std::string title) : title_(std::move(title)) {}

void
ReportJson::add_run(const std::string& name, const engine::Metrics& metrics,
                    const std::optional<RunDeploymentInfo>& deployment,
                    const std::optional<engine::SloSpec>& slo)
{
    Run run;
    run.name = name;
    run.deployment = deployment;
    run.requests = static_cast<std::int64_t>(metrics.requests().size());
    run.total_tokens = metrics.total_tokens();
    run.duration = metrics.end_time();
    run.mean_throughput = metrics.mean_throughput();
    run.peak_throughput = metrics.throughput().peak_rate();
    run.sp_steps = metrics.sp_steps();
    run.tp_steps = metrics.tp_steps();
    for (const auto& rec : metrics.requests())
        run.preemptions += rec.preemptions;

    const auto summarize = [](const util::Histogram& h) {
        LatencySummary s;
        s.p50 = h.percentile(50);
        s.p90 = h.percentile(90);
        s.p99 = h.percentile(99);
        s.mean = h.mean();
        s.min = h.min();
        s.max = h.max();
        s.count = static_cast<std::int64_t>(h.count());
        return s;
    };
    run.ttft = summarize(metrics.ttft());
    run.tpot = summarize(metrics.tpot());
    run.completion = summarize(metrics.completion());
    run.wait = summarize(metrics.wait());

    run.slo = slo;
    if (slo) {
        run.slo_attainment = metrics.slo_attainment(*slo);
        run.goodput = metrics.goodput(*slo);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    runs_.push_back(std::move(run));
}

void
ReportJson::merge_from(ReportJson&& other)
{
    std::scoped_lock lock(mutex_, other.mutex_);
    for (auto& run : other.runs_)
        runs_.push_back(std::move(run));
    other.runs_.clear();
}

void
ReportJson::set_metrics(MetricsSnapshot snapshot)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (snapshot.empty())
        metrics_.reset();
    else
        metrics_ = std::move(snapshot);
}

void
ReportJson::write(std::ostream& os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    util::JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.kv("schema", kReportSchemaName);
    w.kv("version", kReportSchemaVersion);
    w.kv("title", title_);
    w.key("runs").begin_array();
    for (const auto& run : runs_) {
        w.begin_object();
        w.kv("name", run.name);
        w.key("deployment");
        if (run.deployment) {
            w.begin_object();
            w.kv("description", run.deployment->description);
            w.kv("sp", run.deployment->sp);
            w.kv("tp", run.deployment->tp);
            w.kv("replicas", run.deployment->replicas);
            w.kv("shift_threshold", run.deployment->shift_threshold);
            if (!run.deployment->cost_model.empty())
                w.kv("cost_model", run.deployment->cost_model);
            w.end_object();
        } else {
            w.null();
        }
        w.key("metrics").begin_object();
        w.kv("requests", run.requests);
        w.kv("total_tokens", run.total_tokens);
        w.kv("duration_s", run.duration);
        w.kv("mean_throughput_tok_s", run.mean_throughput);
        w.kv("peak_throughput_tok_s", run.peak_throughput);
        w.kv("sp_steps", run.sp_steps);
        w.kv("tp_steps", run.tp_steps);
        w.kv("preemptions", run.preemptions);
        const auto latency = [&](const char* key,
                                 const LatencySummary& s) {
            w.key(key).begin_object();
            w.kv("p50", s.p50).kv("p90", s.p90).kv("p99", s.p99);
            w.kv("mean", s.mean).kv("min", s.min).kv("max", s.max);
            w.kv("count", s.count);
            w.end_object();
        };
        latency("ttft_s", run.ttft);
        latency("tpot_s", run.tpot);
        latency("completion_s", run.completion);
        latency("wait_s", run.wait);
        w.key("slo");
        if (run.slo) {
            w.begin_object();
            w.kv("ttft_s", run.slo->ttft);
            w.kv("tpot_s", run.slo->tpot);
            w.kv("attainment", run.slo_attainment);
            w.kv("goodput_tok_s", run.goodput);
            w.end_object();
        } else {
            w.null();
        }
        w.end_object();  // metrics
        w.end_object();  // run
    }
    w.end_array();
    if (metrics_) {
        const auto labels = [&](const MetricLabels& ls) {
            w.key("labels").begin_object();
            for (const auto& [k, v] : ls)
                w.kv(k, v);
            w.end_object();
        };
        w.key("metrics").begin_object();
        w.kv("version", kMetricsSchemaVersion);
        w.key("counters").begin_array();
        for (const auto& c : metrics_->counters) {
            w.begin_object();
            w.kv("name", c.name);
            labels(c.labels);
            w.kv("value", c.value);
            w.end_object();
        }
        w.end_array();
        w.key("gauges").begin_array();
        for (const auto& g : metrics_->gauges) {
            w.begin_object();
            w.kv("name", g.name);
            labels(g.labels);
            w.kv("value", g.value);
            w.end_object();
        }
        w.end_array();
        w.key("histograms").begin_array();
        for (const auto& h : metrics_->histograms) {
            w.begin_object();
            w.kv("name", h.name);
            labels(h.labels);
            w.kv("count", h.count);
            w.kv("sum", h.sum).kv("mean", h.mean);
            w.kv("min", h.min).kv("max", h.max);
            w.kv("p50", h.p50).kv("p90", h.p90).kv("p99", h.p99);
            w.end_object();
        }
        w.end_array();
        w.end_object();  // metrics
    }
    w.end_object();
    os << "\n";
}

void
ReportJson::write_file(const std::string& path) const
{
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    std::ofstream os(path);
    if (!os)
        fatal("cannot open report output file '" + path + "'");
    write(os);
}

} // namespace shiftpar::obs
