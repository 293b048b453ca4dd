/**
 * @file
 * Sim-core microbenchmark: how fast does the discrete-event cluster loop
 * itself go?
 *
 * ROADMAP item 1 wants the core's events/sec tracked across PRs so loop
 * regressions are caught when they land, not when a figure bench gets
 * slow. This driver replays synthetic N-engine / M-request fleets built
 * from trivial components (fixed-cost work units, no perf model), so the
 * measured time is almost entirely `Cluster::run` + `EventQueue` — the
 * loop, not the payload. Results append to a trajectory file
 * (`bench_results/BENCH_simcore.json`, schema "shiftpar.bench_simcore")
 * keyed by `--label`; re-running a label replaces its entry. CI runs
 * `--short` and validates the schema (see tools/plot_results.py for the
 * trajectory plot).
 *
 * Flags:
 *   --out <path>    trajectory file (default bench_results/BENCH_simcore.json)
 *   --label <name>  entry label, e.g. a PR number or "dev" (default "dev")
 *   --short         one small fleet only, for CI smoke
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/cluster.h"
#include "sim/profiler.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace {

using namespace shiftpar;

constexpr const char* kSchema = "shiftpar.bench_simcore";
constexpr int kSchemaVersion = 1;

/** Synthetic engine: drains queued work one fixed-cost step at a time. */
class ToyEngine final : public sim::Component
{
  public:
    explicit ToyEngine(double step_s) : step_s_(step_s) {}

    const char* kind() const override { return "toy_engine"; }

    double
    next_event_time() const override
    {
        return pending_ > 0 ? now_
                            : std::numeric_limits<double>::infinity();
    }

    bool
    advance_to(double t) override
    {
        now_ = std::max(now_, t) + step_s_;
        --pending_;
        return true;
    }

    void
    enqueue(int units)
    {
        pending_ += units;
        notify_ready_changed();  // mutated from an event closure
    }

  private:
    double now_ = 0.0;
    double step_s_;
    int pending_ = 0;
};

/** One fleet shape to measure. */
struct Config
{
    int engines = 0;
    int requests = 0;
};

/** One measured point of the trajectory. */
struct Sample
{
    std::int64_t engines = 0;
    std::int64_t requests = 0;
    std::int64_t events_fired = 0;
    std::int64_t component_advances = 0;
    double wall_s = 0.0;
    /** Units of progress (events + advances) per host second. */
    double events_per_sec = 0.0;
    std::int64_t peak_rss_bytes = 0;
    std::int64_t queue_high_water = 0;
    std::int64_t heap_pushes = 0;
    std::int64_t heap_pops = 0;
};

/** A labelled run of every config (one per PR/bench invocation). */
struct Entry
{
    std::string label;
    std::vector<Sample> samples;
};

/**
 * Replay one synthetic fleet under the self-profiler. Arrivals land
 * round-robin; every 16th request also posts a decoy future event that is
 * cancelled before the run, exercising the queue's lazy-cancellation path.
 */
sim::ClusterProfile
run_fleet(const Config& cfg)
{
    sim::Cluster cluster;
    sim::ClusterProfile prof;
    cluster.set_profile(&prof);

    std::vector<ToyEngine> fleet(static_cast<std::size_t>(cfg.engines),
                                 ToyEngine(50e-6));
    for (ToyEngine& e : fleet)
        cluster.add(&e);

    std::vector<sim::EventId> decoys;
    for (int i = 0; i < cfg.requests; ++i) {
        const double t = 1e-4 * i;
        ToyEngine& target =
            fleet[static_cast<std::size_t>(i % cfg.engines)];
        const int units = 2 + i % 6;
        cluster.post(t, [&target, units] { target.enqueue(units); });
        if (i % 16 == 0)
            decoys.push_back(cluster.post(t + 1.0, [] {}));
    }
    for (const sim::EventId id : decoys)
        cluster.cancel_event(id);

    cluster.run();
    return prof;
}

/** Best-of-N measurement of one config (counts are deterministic). */
Sample
measure(const Config& cfg)
{
    constexpr int kReps = 3;
    sim::ClusterProfile best;
    for (int rep = 0; rep < kReps; ++rep) {
        const sim::ClusterProfile prof = run_fleet(cfg);
        if (rep == 0 || prof.run_wall_s < best.run_wall_s)
            best = prof;
    }

    Sample s;
    s.engines = cfg.engines;
    s.requests = cfg.requests;
    s.events_fired = best.events_fired;
    for (const auto& [kind, k] : best.components)
        s.component_advances += k.advances;
    s.wall_s = best.run_wall_s;
    s.events_per_sec =
        best.run_wall_s > 0.0
            ? static_cast<double>(best.units()) / best.run_wall_s
            : 0.0;
    s.peak_rss_bytes =
        static_cast<std::int64_t>(util::peak_rss_bytes());
    s.queue_high_water = best.queue_high_water;
    s.heap_pushes = best.heap_pushes;
    s.heap_pops = best.heap_pops;
    return s;
}

std::int64_t
require_int(const util::JsonValue& v, const std::string& key)
{
    return v.at(key).integer();
}

/**
 * Load an existing trajectory file, dropping any entry named `skip_label`
 * (the caller is about to re-record it). Fatal on schema mismatch: a
 * trajectory that silently mixed schemas would poison every later plot.
 */
std::vector<Entry>
load_entries(const std::string& path, const std::string& skip_label)
{
    std::vector<Entry> entries;
    std::ifstream is(path);
    if (!is)
        return entries;
    std::ostringstream buf;
    buf << is.rdbuf();

    // Malformed JSON, a missing key, a value of the wrong type or a count
    // that is not an integer all throw; any of them is fatal.
    try {
        const util::JsonValue root = util::parse_json(buf.str());
        if (!root.is_object() || !root.has("schema") ||
            root.at("schema").str() != kSchema ||
            root.at("version").integer<int>() != kSchemaVersion) {
            fatal("'" + path + "' is not a " + kSchema + " v" +
                  std::to_string(kSchemaVersion) + " trajectory file");
        }
        for (const util::JsonValue& e : root.at("entries").arr()) {
            Entry entry;
            entry.label = e.at("label").str();
            if (entry.label == skip_label)
                continue;
            for (const util::JsonValue& c : e.at("configs").arr()) {
                Sample s;
                s.engines = require_int(c, "engines");
                s.requests = require_int(c, "requests");
                s.events_fired = require_int(c, "events_fired");
                s.component_advances = require_int(c, "component_advances");
                s.wall_s = c.at("wall_s").num();
                s.events_per_sec = c.at("events_per_sec").num();
                s.peak_rss_bytes = require_int(c, "peak_rss_bytes");
                s.queue_high_water = require_int(c, "queue_high_water");
                s.heap_pushes = require_int(c, "heap_pushes");
                s.heap_pops = require_int(c, "heap_pops");
                entry.samples.push_back(s);
            }
            entries.push_back(std::move(entry));
        }
    } catch (const std::exception& e) {
        fatal("cannot read existing trajectory '" + path +
              "': " + e.what());
    }
    return entries;
}

void
write_trajectory(const std::string& path, const std::vector<Entry>& entries)
{
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    std::ofstream os(path);
    if (!os)
        fatal("cannot open trajectory output '" + path + "'");

    util::JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.kv("schema", kSchema);
    w.kv("version", kSchemaVersion);
    w.key("entries").begin_array();
    for (const Entry& e : entries) {
        w.begin_object();
        w.kv("label", e.label);
        w.key("configs").begin_array();
        for (const Sample& s : e.samples) {
            w.begin_object();
            w.kv("engines", s.engines);
            w.kv("requests", s.requests);
            w.kv("events_fired", s.events_fired);
            w.kv("component_advances", s.component_advances);
            w.kv("wall_s", s.wall_s);
            w.kv("events_per_sec", s.events_per_sec);
            w.kv("peak_rss_bytes", s.peak_rss_bytes);
            w.kv("queue_high_water", s.queue_high_water);
            w.kv("heap_pushes", s.heap_pushes);
            w.kv("heap_pops", s.heap_pops);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out = "bench_results/BENCH_simcore.json";
    std::string label = "dev";
    bool short_run = false;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(arg, "--label") == 0 && i + 1 < argc) {
            label = argv[++i];
        } else if (std::strcmp(arg, "--short") == 0) {
            short_run = true;
        } else {
            fatal(std::string("unknown argument '") + arg +
                  "' (expected --out <path>, --label <name>, --short)");
        }
    }

    // --short keeps the 64-engine point: it is the scaling-cliff config
    // the bench-smoke CI job gates on against the committed trajectory.
    const std::vector<Config> configs =
        short_run ? std::vector<Config>{{4, 2048}, {64, 16384}}
                  : std::vector<Config>{{8, 16384},
                                        {64, 16384},
                                        {8, 65536},
                                        {64, 65536},
                                        {256, 65536}};

    std::printf("sim-core microbench (label '%s')\n", label.c_str());
    std::printf("%8s %9s %13s %13s %10s %12s\n", "engines", "requests",
                "events", "advances", "wall_ms", "Munits/s");

    Entry entry;
    entry.label = label;
    for (const Config& cfg : configs) {
        const Sample s = measure(cfg);
        std::printf("%8lld %9lld %13lld %13lld %10.2f %12.2f\n",
                    static_cast<long long>(s.engines),
                    static_cast<long long>(s.requests),
                    static_cast<long long>(s.events_fired),
                    static_cast<long long>(s.component_advances),
                    s.wall_s * 1e3, s.events_per_sec / 1e6);
        entry.samples.push_back(s);
    }

    std::vector<Entry> entries = load_entries(out, label);
    entries.push_back(std::move(entry));
    write_trajectory(out, entries);
    std::printf("trajectory: wrote %s (%zu entries)\n", out.c_str(),
                entries.size());
    return 0;
}
