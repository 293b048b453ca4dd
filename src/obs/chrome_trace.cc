#include "obs/chrome_trace.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/json.h"
#include "util/logging.h"

namespace shiftpar::obs {

namespace {

/** Thread ids inside each engine process. */
constexpr int kTidSteps = 0;
constexpr int kTidMode = 1;
constexpr int kTidCache = 2;
constexpr int kTidFault = 3;

/** pid block reserved for the synthetic per-run "requests" processes. */
constexpr int kRequestsPidBase = 10000;

/** Build a one-level JSON object fragment: {"k":v,...}. */
class ArgsBuilder
{
  public:
    ArgsBuilder&
    add(const std::string& k, double v)
    {
        item(k) << util::json_number(v);
        return *this;
    }

    ArgsBuilder&
    add(const std::string& k, std::int64_t v)
    {
        item(k) << v;
        return *this;
    }

    ArgsBuilder&
    add(const std::string& k, const std::string& v)
    {
        item(k) << '"' << util::json_escape(v) << '"';
        return *this;
    }

    ArgsBuilder&
    add(const std::string& k, bool v)
    {
        item(k) << (v ? "true" : "false");
        return *this;
    }

    std::string
    str() const
    {
        // Appending (not "{" + ... + "}") sidesteps a GCC 12 -Wrestrict
        // false positive in the temporary concatenation.
        std::string s = "{";
        s += os_.str();
        s += '}';
        return s;
    }

  private:
    std::ostream&
    item(const std::string& k)
    {
        if (any_)
            os_ << ',';
        any_ = true;
        os_ << '"' << util::json_escape(k) << "\":";
        return os_;
    }

    std::ostringstream os_;
    bool any_ = false;
};

} // namespace

void
ChromeTraceWriter::on_engine_meta(const EngineMeta& meta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Process p;
    p.pid = meta.engine;
    p.name = run_label_.empty() ? meta.label : run_label_ + "/" + meta.label;
    p.threads = {"steps", "mode", "cache", "fault"};
    processes_.push_back(std::move(p));
}

int
ChromeTraceWriter::requests_pid()
{
    if (!requests_process_made_) {
        requests_process_made_ = true;
        requests_pid_ =
            kRequestsPidBase + static_cast<int>(processes_.size());
        Process p;
        p.pid = requests_pid_;
        p.name = run_label_.empty() ? std::string("requests")
                                    : "requests (" + run_label_ + ")";
        processes_.push_back(std::move(p));
    }
    return requests_pid_;
}

void
ChromeTraceWriter::counter(int pid, double t, const std::string& name,
                           const std::string& series, double value)
{
    Event e;
    e.ph = 'C';
    e.pid = pid;
    e.ts = us(t);
    e.name = name;
    e.args_json = ArgsBuilder().add(series, value).str();
    events_.push_back(std::move(e));
}

void
ChromeTraceWriter::on_request(const RequestEvent& ev)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Event e;
    e.pid = requests_pid();
    e.ts = us(ev.t);
    e.cat = "request";
    // Unique async id per (requests process, request): each run gets its
    // own requests process, so overlapping simulated timelines of
    // consecutive runs cannot corrupt each other's span nesting.
    e.id = std::to_string(e.pid) + ":" + std::to_string(ev.request);
    // Causal span index stamped by publish_request; < 0 on events
    // delivered via a direct on_request (legacy tests, hand-built sinks).
    const auto with_span = [&](ArgsBuilder& args) -> ArgsBuilder& {
        if (ev.span >= 0)
            args.add("span", ev.span);
        return args;
    };
    switch (ev.phase) {
      case RequestPhase::kSubmit:
        if (open_requests_.insert(e.id).second) {
            e.ph = 'b';
            e.name = "req " + std::to_string(ev.request);
            ArgsBuilder args;
            args.add("prompt_tokens", ev.tokens)
                .add("engine", static_cast<std::int64_t>(ev.engine));
            e.args_json = with_span(args).str();
        } else {
            // Retry after a replica failure: the span is still open, so
            // the re-entry renders as a marker inside it.
            e.ph = 'n';
            e.name = "resubmit";
            ArgsBuilder args;
            args.add("engine", static_cast<std::int64_t>(ev.engine));
            e.args_json = with_span(args).str();
        }
        break;
      case RequestPhase::kFinish: {
        e.ph = 'e';
        e.name = "req " + std::to_string(ev.request);
        ArgsBuilder args;
        args.add("output_tokens", ev.tokens);
        e.args_json = with_span(args).str();
        open_requests_.erase(e.id);
        break;
      }
      case RequestPhase::kCancel: {
        e.ph = 'e';
        e.name = "req " + std::to_string(ev.request);
        ArgsBuilder args;
        args.add("cancelled", true);
        e.args_json = with_span(args).str();
        open_requests_.erase(e.id);
        break;
      }
      case RequestPhase::kExpired: {
        e.ph = 'e';
        e.name = "req " + std::to_string(ev.request);
        ArgsBuilder args;
        args.add("expired", true);
        e.args_json = with_span(args).str();
        open_requests_.erase(e.id);
        break;
      }
      case RequestPhase::kLost:
        if (open_requests_.erase(e.id) > 0) {
            // Retries exhausted on a request that had reached an engine:
            // close its span like a cancellation.
            e.ph = 'e';
            e.name = "req " + std::to_string(ev.request);
            ArgsBuilder args;
            args.add("lost", true);
            e.args_json = with_span(args).str();
        } else {
            // Lost before any engine accepted it (full outage from the
            // first attempt): no span to close, a bare marker suffices.
            e.ph = 'n';
            e.name = phase_name(ev.phase);
            if (ev.span >= 0) {
                ArgsBuilder args;
                e.args_json = with_span(args).str();
            }
        }
        break;
      default:
        e.ph = 'n';
        e.name = phase_name(ev.phase);
        {
            ArgsBuilder args;
            args.add("engine", static_cast<std::int64_t>(ev.engine));
            if (ev.tokens > 0)
                args.add("tokens", ev.tokens);
            e.args_json = with_span(args).str();
        }
        break;
    }
    events_.push_back(std::move(e));
}

void
ChromeTraceWriter::on_step(const StepEvent& ev)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Event e;
    e.ph = 'X';
    e.pid = ev.engine;
    e.tid = kTidSteps;
    e.ts = us(ev.start);
    e.dur = us(ev.end - ev.start);
    e.name = ev.shifted ? "shift step" : "base step";
    e.cat = "step";
    e.args_json = ArgsBuilder()
                      .add("batched_tokens", ev.batched_tokens)
                      .add("num_seqs", ev.num_seqs)
                      .add("config", ev.cfg.to_string())
                      .add("sliced", ev.sliced)
                      .add("gemm_ms", ev.timing.gemm * 1e3)
                      .add("attention_ms", ev.timing.attention * 1e3)
                      .add("comm_ms", ev.timing.comm * 1e3)
                      .add("overhead_ms", ev.timing.overhead * 1e3)
                      .str();
    events_.push_back(std::move(e));

    counter(ev.engine, ev.start, "batched_tokens", "tokens",
            static_cast<double>(ev.batched_tokens));
    counter(ev.engine, ev.start, "mode (1=shift)", "mode",
            ev.shifted ? 1.0 : 0.0);
}

void
ChromeTraceWriter::on_mode_switch(const ModeSwitchEvent& ev)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Event e;
    e.ph = 'i';
    e.pid = ev.engine;
    e.tid = kTidMode;
    e.ts = us(ev.t);
    e.name = ev.to_shift ? "shift" : "unshift";
    e.cat = "mode";
    e.args_json = ArgsBuilder()
                      .add("batched_tokens", ev.batched_tokens)
                      .add("from", ev.from.to_string())
                      .add("to", ev.to.to_string())
                      .str();
    events_.push_back(std::move(e));
}

void
ChromeTraceWriter::on_gauge(const GaugeEvent& ev)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counter(ev.engine, ev.t, "kv_occupancy", "fraction",
            ev.kv_utilization);
    counter(ev.engine, ev.t, "queue_depth", "requests",
            static_cast<double>(ev.waiting));
    counter(ev.engine, ev.t, "running_seqs", "requests",
            static_cast<double>(ev.running));
    counter(ev.engine, ev.t, "outstanding_tokens", "tokens",
            static_cast<double>(ev.outstanding_tokens));
}

void
ChromeTraceWriter::on_fault(const FaultEvent& ev)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Event e;
    e.ph = 'i';
    e.pid = ev.engine;
    e.tid = kTidFault;
    e.ts = us(ev.t);
    e.name = fault_kind_name(ev.kind);
    e.cat = "fault";
    ArgsBuilder args;
    if (ev.magnitude != 0.0)
        args.add("factor", ev.magnitude);
    if (ev.dropped_requests != 0)
        args.add("dropped_requests", ev.dropped_requests);
    e.args_json = args.str();
    events_.push_back(std::move(e));
}

void
ChromeTraceWriter::on_instant(EngineId engine, double t,
                              const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Event e;
    e.ph = 'i';
    e.pid = engine;
    e.tid = kTidCache;
    e.ts = us(t);
    e.name = name;
    e.cat = "cache";
    events_.push_back(std::move(e));
}

void
ChromeTraceWriter::write(std::ostream& os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    util::JsonWriter w(os);
    w.begin_object();
    w.kv("displayTimeUnit", "ms");
    w.key("traceEvents").begin_array();

    for (const auto& p : processes_) {
        w.begin_object();
        w.kv("ph", "M").kv("name", "process_name").kv("pid", p.pid);
        w.kv("tid", 0);
        w.key("args").begin_object().kv("name", p.name).end_object();
        w.end_object();
        for (std::size_t tid = 0; tid < p.threads.size(); ++tid) {
            w.begin_object();
            w.kv("ph", "M").kv("name", "thread_name").kv("pid", p.pid);
            w.kv("tid", static_cast<std::int64_t>(tid));
            w.key("args").begin_object();
            w.kv("name", p.threads[tid]);
            w.end_object();
            w.end_object();
        }
    }

    for (const auto& e : events_) {
        w.begin_object();
        w.kv("ph", std::string(1, e.ph));
        w.kv("pid", e.pid).kv("tid", e.tid).kv("ts", e.ts);
        if (e.ph == 'X')
            w.kv("dur", e.dur);
        if (e.ph == 'i')
            w.kv("s", "t");
        w.kv("name", e.name);
        if (!e.cat.empty())
            w.kv("cat", e.cat);
        if (!e.id.empty())
            w.kv("id", e.id);
        if (!e.args_json.empty())
            w.key("args").raw(e.args_json);
        w.end_object();
    }

    w.end_array();
    w.end_object();
    os << "\n";
}

void
ChromeTraceWriter::write_file(const std::string& path) const
{
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    std::ofstream os(path);
    if (!os)
        fatal("cannot open trace output file '" + path + "'");
    write(os);
}

} // namespace shiftpar::obs
