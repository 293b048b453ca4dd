/**
 * @file
 * Replay benchmark: host time of real trace replays.
 *
 * A workload is a trace generator plus the deployments each trace is
 * replayed under. One run replays a fixed number of independent traces
 * derived from `--seed` (trace 0 uses the seed itself), each to
 * completion under every deployment, through the public API
 * (`core::resolve`, `core::build`, `Router::run_workload`). The simulated
 * results are outputs the check pins; the metrics are host costs.
 *
 *   replay_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * `--trace 0` repeats untraced, unprofiled rounds (set up every trace,
 * then replay every trace) for `--seconds` and reports the end-to-end
 * metrics as medians over rounds. `--trace 1` alternates untraced and
 * traced replays of trace 0. In a traced replay every engine and router
 * is built by hand exactly as `core::build` does, but with a pass-through
 * policy wrapper, a layer-timing trace sink and a `sim::ClusterProfile`
 * attached; it reports the per-layer split of one trace.
 *
 * Every replay is checked: request conservation, and a digest of its
 * simulated results that must repeat across rounds, match between traced
 * and untraced replays, and equal the digest pinned for seed 2026. The
 * last stdout line is one JSON object with the keys correct, attempted,
 * failed and metrics; the lines before it list every metric by name with
 * its unit.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/shift_controller.h"
#include "engine/router.h"
#include "fault/fault_schedule.h"
#include "kvcache/cache_manager.h"
#include "model/presets.h"
#include "sim/profiler.h"
#include "util/rng.h"
#include "workload/agentic.h"
#include "workload/bursty.h"
#include "workload/lifecycle.h"
#include "workload/mooncake_trace.h"

using namespace shiftpar;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
since(Clock::time_point t0)
{
    return seconds_between(t0, Clock::now());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "replay_bench: %s\nusage: replay_bench --workload "
                 "mooncake|agentic_prefix|overload_dp8 --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why.c_str());
    std::exit(2);
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One deployment a trace is replayed under. */
struct Case
{
    std::string name;
    core::Deployment dep;
};

/** One generated trace plus the deployments replaying it. */
struct Trace
{
    std::vector<engine::RequestSpec> requests;
    std::vector<Case> cases;
};

/** The paper's DP / TP / SP / Shift comparison on one model. */
std::vector<Case>
comparison_cases(const model::ModelConfig& m)
{
    std::vector<Case> cases;
    for (const parallel::Strategy s :
         {parallel::Strategy::kDp, parallel::Strategy::kTp,
          parallel::Strategy::kSp, parallel::Strategy::kShift}) {
        core::Deployment d;
        d.model = m;
        d.node = hw::h200_node();
        d.strategy = s;
        cases.push_back({parallel::strategy_name(s), d});
    }
    return cases;
}

/** Fig. 10's Mooncake conversation trace on Qwen-32B with FP8 KV. */
Trace
make_mooncake(std::uint64_t seed)
{
    Rng rng(seed);
    workload::MooncakeTraceOptions opts;
    opts.duration = 900.0;
    opts.prompt_median = 14000.0;
    opts.output_median = 1000.0;
    model::ModelConfig m = model::qwen_32b();
    m.kv_dtype = model::DType::kFp8;
    return {workload::mooncake_conversation_trace(rng, opts),
            comparison_cases(m)};
}

/** Agentic sessions with shared growing prefixes, prefix caching on. */
Trace
make_agentic_prefix(std::uint64_t seed)
{
    Rng rng(seed);
    workload::AgenticOptions opts;
    opts.num_agents = 128;
    opts.turns_per_agent = 16;
    opts.session_stagger = 1.0;
    Trace t{workload::agentic_sessions(rng, opts),
            comparison_cases(model::llama_70b())};
    for (Case& c : t.cases)
        c.dep.sched.enable_prefix_caching = true;
    return t;
}

/**
 * The overload extension's 8-replica round-robin DP system with the
 * engine-0 straggler, at 4x load for 900 s with cancels, deadlines,
 * hedging and circuit breakers all on.
 */
Trace
make_overload_dp8(std::uint64_t seed)
{
    constexpr double kFactor = 4.0;
    Rng rng(seed);
    workload::BurstyOptions wopts;
    wopts.duration = 900.0;
    wopts.base_rate = 1.0 * kFactor;
    wopts.num_bursts = 22;
    wopts.burst_rate = 10.0 * kFactor;
    wopts.burst_duration = 15.0;
    Trace t;
    t.requests = workload::bursty_workload(rng, wopts);

    workload::LifecycleOptions lc;
    lc.cancel_rate = 0.05;
    lc.cancel_delay_mean = 5.0;
    lc.seed = seed ^ 0x0b5e55edULL;
    lc.deadline = 20.0;
    lc.deadline_per_token = 0.05;
    std::vector<engine::CancelEvent> cancels =
        workload::cancel_stream(t.requests, lc);
    workload::apply_deadlines(&t.requests, lc);

    core::Deployment d;
    d.model = model::qwen_32b();
    d.node = hw::h200_node();
    d.strategy = parallel::Strategy::kDp;
    d.tp = 1;
    d.routing = engine::RoutingPolicy::kRoundRobin;
    d.faults =
        fault::parse_fault_spec("straggle:engine=0,at=10,until=110,slow=3");
    d.overload.hedge_delay = 2.0;
    d.overload.breaker.enabled = true;
    d.overload.breaker.min_samples = 15;
    d.overload.breaker.trip_ratio = 2.5;
    d.overload.breaker.open_duration = 15.0;
    d.cancellations = std::move(cancels);
    t.cases.push_back({"DP8-rr", d});
    return t;
}

/** The default seed, whose simulated results are pinned below. */
constexpr std::uint64_t kPinnedSeed = 2026;

/**
 * A workload: its generator, how many independent traces one run
 * replays (enough that a run's totals vary little from seed to seed),
 * and its simulated results pinned at `kPinnedSeed`.
 */
struct WorkloadSpec
{
    const char* name;
    int traces;
    Trace (*make)(std::uint64_t seed);
    std::uint64_t pinned_all;    ///< fingerprint of every trace's digests
    std::uint64_t pinned_first;  ///< fingerprint of trace 0's digests
    std::int64_t pinned_switches;  ///< trace 0's Shift mode switches
};

constexpr WorkloadSpec kWorkloads[] = {
    {"mooncake", 4, make_mooncake, 0x52b7575ba8d48337ULL,
     0x76d7888393eef380ULL, 441},
    {"agentic_prefix", 4, make_agentic_prefix, 0x863b05d392d586b0ULL,
     0x2a0217acdb938a4bULL, 1595},
    {"overload_dp8", 8, make_overload_dp8, 0x5aa8d0ae59479111ULL,
     0x0924c1ae148979d2ULL, 0},
};

const WorkloadSpec*
find_workload(const std::string& name)
{
    for (const WorkloadSpec& w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

/** Seed of trace `k` of a run; trace 0 is the run's own seed. */
std::uint64_t
trace_seed(std::uint64_t seed, int k)
{
    return seed + static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ULL;
}

// ---------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------

/** The simulated results of one replay that the check pins. */
struct Digest
{
    std::int64_t submitted = 0;
    std::int64_t completed = 0;
    std::int64_t expired = 0;
    std::int64_t cancelled = 0;
    std::int64_t lost = 0;
    std::int64_t shed = 0;
    std::int64_t total_tokens = 0;
    std::int64_t sp_steps = 0;
    std::int64_t tp_steps = 0;
    std::int64_t preemptions = 0;
    double end_time = 0.0;
    double ttft_p50 = 0.0;
    double ttft_p99 = 0.0;
    double tpot_p50 = 0.0;
    double tpot_p99 = 0.0;

    bool operator==(const Digest&) const = default;

    std::int64_t steps() const { return sp_steps + tp_steps; }

    /** submitted = completed + expired + cancelled + lost + shed. */
    bool
    conserved() const
    {
        return submitted == completed + expired + cancelled + lost + shed;
    }

    std::string
    to_string() const
    {
        char buf[512];
        std::snprintf(
            buf, sizeof buf,
            "submitted=%lld completed=%lld expired=%lld cancelled=%lld "
            "lost=%lld shed=%lld tokens=%lld sp_steps=%lld tp_steps=%lld "
            "preemptions=%lld end=%.17g ttft_p50=%.17g ttft_p99=%.17g "
            "tpot_p50=%.17g tpot_p99=%.17g",
            static_cast<long long>(submitted),
            static_cast<long long>(completed),
            static_cast<long long>(expired),
            static_cast<long long>(cancelled), static_cast<long long>(lost),
            static_cast<long long>(shed),
            static_cast<long long>(total_tokens),
            static_cast<long long>(sp_steps),
            static_cast<long long>(tp_steps),
            static_cast<long long>(preemptions), end_time, ttft_p50,
            ttft_p99, tpot_p50, tpot_p99);
        return buf;
    }
};

/** Digest a finished replay; `met` is what `run_workload` returned. */
Digest
digest_of(const engine::Router& router, const engine::Metrics& met,
          std::size_t submitted)
{
    Digest d;
    d.submitted = static_cast<std::int64_t>(submitted);
    d.completed = static_cast<std::int64_t>(met.ttft().count());
    d.expired = router.overload_stats().expired;
    d.cancelled = router.overload_stats().cancelled;
    d.lost = router.fault_stats().lost;
    d.shed = router.fault_stats().shed;
    d.total_tokens = met.total_tokens();
    d.sp_steps = met.sp_steps();
    d.tp_steps = met.tp_steps();
    for (std::size_t i = 0; i < router.size(); ++i)
        d.preemptions += router.engine(i).preemption_count();
    d.end_time = met.end_time();
    d.ttft_p50 = met.ttft().percentile(50);
    d.ttft_p99 = met.ttft().percentile(99);
    d.tpot_p50 = met.tpot().percentile(50);
    d.tpot_p99 = met.tpot().percentile(99);
    return d;
}

/** FNV-1a over the digests' canonical text. */
std::uint64_t
fingerprint(const std::vector<Digest>& digests)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const Digest& d : digests) {
        for (const char c : d.to_string() + "\n") {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ULL;
        }
    }
    return h;
}

/**
 * Counts failing replays: a replay fails when it leaks requests, when
 * its digest differs from the first round's, or when the first round's
 * fingerprint (or mode-switch count) differs from the pinned one.
 */
class Checker
{
  public:
    Checker(std::optional<std::uint64_t> pinned,
            std::optional<std::int64_t> pinned_switches)
        : pinned_(pinned), pinned_switches_(pinned_switches)
    {
    }

    /** Check one round of replays (one digest per trace x deployment). */
    void
    check(const std::vector<Digest>& round, const char* what)
    {
        for (const Digest& d : round) {
            ++attempted_;
            if (!d.conserved()) {
                ++failed_;
                std::fprintf(stderr, "check: %s replay leaks requests: %s\n",
                             what, d.to_string().c_str());
            }
        }
        if (reference_.empty()) {
            reference_ = round;
            const std::uint64_t fp = fingerprint(round);
            if (pinned_ && fp != *pinned_) {
                failed_ += round.size();
                std::fprintf(stderr,
                             "check: fingerprint 0x%016llx differs from the "
                             "pinned 0x%016llx\n",
                             static_cast<unsigned long long>(fp),
                             static_cast<unsigned long long>(*pinned_));
            }
            return;
        }
        for (std::size_t i = 0; i < round.size(); ++i) {
            if (round[i] == reference_[i])
                continue;
            ++failed_;
            std::fprintf(stderr,
                         "check: %s replay %zu differs from the first "
                         "round:\n  %s\n  %s\n",
                         what, i, round[i].to_string().c_str(),
                         reference_[i].to_string().c_str());
        }
    }

    /** Check a traced replay's mode-switch count. */
    void
    check_mode_switches(std::int64_t switches)
    {
        if (!pinned_switches_)
            pinned_switches_ = switches;  // later rounds must repeat it
        if (switches != *pinned_switches_) {
            ++failed_;
            std::fprintf(stderr, "check: %lld mode switches, expected %lld\n",
                         static_cast<long long>(switches),
                         static_cast<long long>(*pinned_switches_));
        }
    }

    const std::vector<Digest>& reference() const { return reference_; }
    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }

  private:
    std::optional<std::uint64_t> pinned_;
    std::optional<std::int64_t> pinned_switches_;
    std::vector<Digest> reference_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
};

// ---------------------------------------------------------------------
// Untraced rounds
// ---------------------------------------------------------------------

/** Traces 0..n-1 generated, resolved and built under every deployment. */
struct Setup
{
    std::vector<Trace> traces;
    std::vector<std::unique_ptr<engine::Router>> routers;  ///< trace-major
    double gen_s = 0.0;
    double resolve_s = 0.0;
    double build_s = 0.0;

    double total_s() const { return gen_s + resolve_s + build_s; }
};

Setup
set_up(const WorkloadSpec& w, std::uint64_t seed, int traces)
{
    Setup s;
    auto t0 = Clock::now();
    for (int k = 0; k < traces; ++k)
        s.traces.push_back(w.make(trace_seed(seed, k)));
    s.gen_s = since(t0);

    t0 = Clock::now();
    std::vector<core::ResolvedDeployment> plans;
    for (const Trace& t : s.traces) {
        for (const Case& c : t.cases)
            plans.push_back(core::resolve(c.dep));
    }
    s.resolve_s = since(t0);

    t0 = Clock::now();
    for (const Trace& t : s.traces) {
        for (const Case& c : t.cases)
            s.routers.push_back(core::build(c.dep, plans[s.routers.size()]));
    }
    s.build_s = since(t0);
    return s;
}

/** One untraced round's results. */
struct Round
{
    double gen_s = 0.0;
    double resolve_s = 0.0;
    double build_s = 0.0;
    std::vector<double> replay_s;  ///< per replay (trace x deployment)
    std::int64_t steps = 0;
    std::int64_t settled = 0;
    std::vector<Digest> digests;
};

/**
 * Set up traces 0..`traces`-1 under every deployment, then replay each
 * once, untraced and unprofiled. Each router is destroyed after its
 * replay, so peak memory is that of the set-up plus the largest replay.
 */
Round
untraced_round(const WorkloadSpec& w, std::uint64_t seed, int traces)
{
    Setup s = set_up(w, seed, traces);
    Round round;
    round.gen_s = s.gen_s;
    round.resolve_s = s.resolve_s;
    round.build_s = s.build_s;
    std::size_t r = 0;
    for (const Trace& t : s.traces) {
        for (std::size_t c = 0; c < t.cases.size(); ++c, ++r) {
            std::unique_ptr<engine::Router> router = std::move(s.routers[r]);
            const auto t0 = Clock::now();
            const engine::Metrics met = router->run_workload(t.requests);
            round.replay_s.push_back(since(t0));
            round.digests.push_back(
                digest_of(*router, met, t.requests.size()));
            round.steps += round.digests.back().steps();
            round.settled += round.digests.back().submitted;
        }
    }
    return round;
}

// ---------------------------------------------------------------------
// Traced replays: per-layer attribution through public hooks
// ---------------------------------------------------------------------

/** Wall-clock boundaries inside the engine step being executed. */
struct StepClock
{
    Clock::time_point chose;    ///< policy returned from choose()
    Clock::time_point stepped;  ///< on_step published
};

/**
 * Pass-through execution policy: forwards every call to the real policy
 * and stamps the time choose() returns, the scheduler -> cost-model
 * boundary inside `Engine::step`.
 */
class TimedPolicy : public engine::ExecutionPolicy
{
  public:
    TimedPolicy(std::unique_ptr<engine::ExecutionPolicy> inner,
                StepClock* clock)
        : inner_(std::move(inner)), clock_(clock)
    {
    }

    Choice
    choose(std::int64_t batched_tokens) const override
    {
        const Choice c = inner_->choose(batched_tokens);
        ++evals_;
        clock_->chose = Clock::now();
        return c;
    }

    void
    attach_trace(obs::TraceSink* sink, obs::EngineId id,
                 const double* clock) override
    {
        inner_->attach_trace(sink, id, clock);
    }

    std::int64_t evals() const { return evals_; }

  private:
    std::unique_ptr<engine::ExecutionPolicy> inner_;
    StepClock* clock_;
    mutable std::int64_t evals_ = 0;
};

/**
 * Trace sink timing a step's later boundaries: choose() -> on_step is
 * the cost model plus `Metrics::on_step`; on_step -> on_gauge is
 * `on_step_complete`, the finish hooks and the request records. It also
 * folds the step and gauge counters the per-layer report needs.
 */
class LayerSink : public obs::TraceSink
{
  public:
    explicit LayerSink(StepClock* clock) : clock_(clock) {}

    void
    on_step(const obs::StepEvent& ev) override
    {
        const Clock::time_point now = Clock::now();
        evaluate_s += seconds_between(clock_->chose, now);
        clock_->stepped = now;
        ++steps;
        tokens += ev.batched_tokens;
        seqs += ev.num_seqs;
    }

    void
    on_gauge(const obs::GaugeEvent& g) override
    {
        complete_s += since(clock_->stepped);
        ++gauges;
        waiting += static_cast<double>(g.waiting);
        kv_util += g.kv_utilization;
    }

    void on_mode_switch(const obs::ModeSwitchEvent&) override
    {
        ++mode_switches;
    }

    void
    on_instant(obs::EngineId, double, const std::string& name) override
    {
        if (name.rfind("prefix_evict", 0) == 0)
            ++prefix_evictions;
    }

    double evaluate_s = 0.0;
    double complete_s = 0.0;
    std::int64_t steps = 0;
    std::int64_t tokens = 0;
    std::int64_t seqs = 0;
    std::int64_t gauges = 0;
    double waiting = 0.0;
    double kv_util = 0.0;
    std::int64_t mode_switches = 0;
    std::int64_t prefix_evictions = 0;

  private:
    StepClock* clock_;
};

/**
 * Build a deployment's router by hand, as `core::build` does, with each
 * engine's policy wrapped in a `TimedPolicy` and the trace bus and
 * profile attached. The output check proves it replays identically.
 */
std::unique_ptr<engine::Router>
build_traced(const core::Deployment& d, const core::ResolvedDeployment& r,
             LayerSink* sink, StepClock* clock, sim::ClusterProfile* profile,
             std::vector<const TimedPolicy*>* policies)
{
    engine::EngineConfig ecfg;
    ecfg.base = r.base;
    ecfg.sched = r.sched;
    ecfg.perf = r.perf;
    ecfg.mem = d.mem;
    ecfg.cost = d.cost;
    ecfg.cost_metrics = false;  // registry writes stay off the timed path
    ecfg.weights = d.weights;
    ecfg.with_shift_model = r.with_shift_model;
    ecfg.block_size = d.block_size;
    ecfg.throughput_bin = d.throughput_bin;

    std::vector<std::unique_ptr<engine::Engine>> engines;
    for (int i = 0; i < r.replicas; ++i) {
        std::unique_ptr<engine::ExecutionPolicy> policy;
        if (d.strategy == parallel::Strategy::kShift && r.base.sp > 1) {
            policy = std::make_unique<core::ShiftController>(
                r.base, r.shift_threshold, d.weights);
        } else {
            policy = std::make_unique<engine::FixedPolicy>(r.base);
        }
        auto timed = std::make_unique<TimedPolicy>(std::move(policy), clock);
        policies->push_back(timed.get());
        obs::EngineMeta meta;
        meta.label = "engine " + std::to_string(i) + " " + r.base.to_string();
        meta.base = r.base;
        meta.shift_threshold = r.shift_threshold;
        ecfg.trace = sink;
        ecfg.trace_id = sink->register_engine(meta);
        engines.push_back(std::make_unique<engine::Engine>(
            d.node, d.model, ecfg, std::move(timed)));
    }
    auto router =
        std::make_unique<engine::Router>(std::move(engines), d.routing);
    router->set_trace(sink);
    router->set_profile(profile);
    router->set_faults(d.faults, d.resilience);
    router->set_overload(d.overload);
    router->set_cancellations(d.cancellations);
    return router;
}

/** One traced replay of a trace under every deployment. */
struct Traced
{
    StepClock clock;
    LayerSink sink{&clock};
    sim::ClusterProfile profile;
    double replay_s = 0.0;
    double merge_s = 0.0;
    std::int64_t evals = 0;
    std::int64_t prefix_hit_tokens = 0;
    std::int64_t prompt_tokens = 0;
    std::int64_t hedges = 0;
    std::int64_t cancelled = 0;
    std::int64_t expired = 0;
    std::int64_t breaker_opens = 0;
    std::int64_t preemptions = 0;
    std::vector<Digest> digests;

    /** Shape of the last deployment's engine-0 cache. */
    std::int64_t kv_capacity = 0;
    std::optional<kvcache::KvLayout> kv_layout;
    int kv_block_size = 16;
    std::int64_t kv_chunk = 0;
    bool kv_prefix_caching = false;
};

void
traced_replay(const Trace& t, Traced* out)
{
    for (const engine::RequestSpec& s : t.requests) {
        out->prompt_tokens +=
            s.prompt_tokens * static_cast<std::int64_t>(t.cases.size());
    }
    for (const Case& c : t.cases) {
        const core::ResolvedDeployment r = core::resolve(c.dep);
        std::vector<const TimedPolicy*> policies;
        sim::ClusterProfile profile;
        auto router = build_traced(c.dep, r, &out->sink, &out->clock,
                                   &profile, &policies);
        out->sink.set_run_label(c.name);

        auto t0 = Clock::now();
        const engine::Metrics met = router->run_workload(t.requests);
        out->replay_s += since(t0);

        // The traced digest comes from a second merge, so the check also
        // proves merged_metrics() reproduces what run_workload returned.
        t0 = Clock::now();
        const engine::Metrics merged = router->merged_metrics();
        out->merge_s += since(t0);

        out->profile.merge(profile);
        out->digests.push_back(
            digest_of(*router, merged, t.requests.size()));
        for (const TimedPolicy* p : policies)
            out->evals += p->evals();
        for (std::size_t i = 0; i < router->size(); ++i) {
            out->prefix_hit_tokens +=
                router->engine(i).cache().prefix_hit_tokens();
        }
        const engine::OverloadStats& os = router->overload_stats();
        out->hedges += os.hedges;
        out->cancelled += os.cancelled;
        out->expired += os.expired;
        out->breaker_opens += os.breaker_opens;
        out->preemptions += out->digests.back().preemptions;

        const kvcache::CacheManager& cache = router->engine(0).cache();
        out->kv_capacity = cache.token_capacity();
        out->kv_layout.emplace(cache.layout());
        out->kv_block_size = c.dep.block_size;
        out->kv_chunk = r.sched.max_batched_tokens;
        out->kv_prefix_caching = r.sched.enable_prefix_caching;
    }
}

/**
 * Drive a standalone `CacheManager` with the trace's own KV pattern —
 * prefix attach, chunked prefill appends (split between the shared prefix
 * and private blocks), one-token decode appends, release and detach on
 * finish, release-and-requeue on a failed append — for `concurrency`
 * live sequences, and return host nanoseconds per cache operation.
 */
double
time_kv_pattern(const std::vector<engine::RequestSpec>& reqs,
                const Traced& tr, std::size_t concurrency,
                std::int64_t* ops_out)
{
    constexpr std::int64_t kMaxOps = 2'000'000;
    struct Live
    {
        std::size_t idx = 0;
        kvcache::RequestId id = 0;
        std::int64_t prefilled = 0;
        std::int64_t prefix_target = 0;
        std::int64_t prefix_filled = 0;
        std::int64_t decoded = 0;
        bool attached = false;
        bool filler = false;
    };
    kvcache::CacheManager cache(tr.kv_capacity, *tr.kv_layout,
                                tr.kv_block_size);
    std::deque<std::size_t> pending;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        pending.push_back(i);
    std::vector<Live> live;
    kvcache::RequestId next_id = 0;
    std::int64_t ops = 0;

    const auto t0 = Clock::now();
    while ((!pending.empty() || !live.empty()) && ops < kMaxOps) {
        while (live.size() < concurrency && !pending.empty()) {
            Live l;
            l.idx = pending.front();
            pending.pop_front();
            l.id = next_id++;
            const engine::RequestSpec& s = reqs[l.idx];
            l.prefix_target = std::min(s.prefix_tokens, s.prompt_tokens - 1);
            if (tr.kv_prefix_caching && s.prefix_id >= 0 &&
                l.prefix_target > 0) {
                const kvcache::PrefixAttach a =
                    cache.attach_prefix(s.prefix_id, l.prefix_target);
                ++ops;
                l.attached = true;
                l.filler = a.is_filler;
                l.prefix_filled = a.hit_tokens;
                l.prefilled = a.hit_tokens;
            }
            live.push_back(l);
        }
        for (std::size_t k = 0; k < live.size();) {
            Live& l = live[k];
            const engine::RequestSpec& s = reqs[l.idx];
            bool ok = true;
            if (l.prefilled < s.prompt_tokens) {
                const std::int64_t chunk =
                    std::min(s.prompt_tokens - l.prefilled, tr.kv_chunk);
                std::int64_t to_prefix = 0;
                if (l.filler) {
                    to_prefix = std::clamp<std::int64_t>(
                        l.prefix_target - l.prefix_filled, 0, chunk);
                }
                if (to_prefix > 0) {
                    ok = cache.try_append_prefix(s.prefix_id, to_prefix);
                    ++ops;
                }
                if (ok && chunk > to_prefix) {
                    ok = cache.try_append(l.id, chunk - to_prefix);
                    ++ops;
                }
                if (ok) {
                    l.prefix_filled += to_prefix;
                    l.prefilled += chunk;
                }
            } else {
                ok = cache.try_append(l.id, 1);
                ++ops;
                l.decoded += ok;
            }
            const bool done = ok && l.decoded >= s.output_tokens;
            if (ok && !done) {
                ++k;
                continue;
            }
            cache.release(l.id);
            ++ops;
            if (l.attached) {
                cache.detach_prefix(s.prefix_id);
                ++ops;
            }
            // A failed append preempts the sequence back to the queue
            // head (recompute), unless it cannot fit even alone.
            if (!ok && live.size() > 1)
                pending.push_front(l.idx);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        }
    }
    const double elapsed = since(t0);
    *ops_out = ops;
    return ops > 0 ? elapsed * 1e9 / static_cast<double>(ops) : 0.0;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Print each metric on its own line, then the result JSON line. */
void
report(const std::vector<Metric>& listed, const std::vector<Metric>& json,
       std::size_t attempted, std::size_t failed)
{
    for (const Metric& m : listed) {
        std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < json.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", json[i].name.c_str(), json[i].value,
                    json[i].unit.c_str());
    }
    std::printf("}}\n");
}

void
print_digests(const WorkloadSpec& w, std::uint64_t seed,
              const std::vector<Digest>& digests)
{
    std::size_t i = 0;
    for (int k = 0; i < digests.size(); ++k) {
        const Trace t = w.make(trace_seed(seed, k));
        for (const Case& c : t.cases) {
            std::printf("digest trace %d %-6s %s\n", k, c.name.c_str(),
                        digests.at(i++).to_string().c_str());
        }
    }
    std::printf("fingerprint 0x%016llx\n",
                static_cast<unsigned long long>(fingerprint(digests)));
}

struct Options
{
    const WorkloadSpec* workload = nullptr;
    std::uint64_t seed = kPinnedSeed;
    double seconds = 10.0;
    bool trace = false;
};

Options
parse(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            o.workload = find_workload(value);
            if (o.workload == nullptr)
                usage("unknown workload '" + value + "'");
            continue;
        }
        if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            o.trace = value == "1";
            continue;
        } else {
            usage("unknown flag " + flag);
        }
        if (value.empty() || *end != '\0')
            usage("bad number for " + flag + ": " + value);
    }
    if (o.workload == nullptr)
        usage("--workload is required");
    if (!(o.seconds > 0.0 && o.seconds <= 3600.0))
        usage("--seconds must be in (0, 3600]");
    return o;
}

/** Rounds repeat while the next one fits the budget; at least 3 run. */
bool
another_round(std::size_t done, Clock::time_point start, double budget,
              double last_round_s)
{
    return done < 3 || since(start) + last_round_s <= budget;
}

int
run_untraced(const Options& o)
{
    // Set-up is cheap next to a replay: sample it a few extra times per
    // round so its median rests on many samples.
    constexpr int kExtraSetups = 4;
    const WorkloadSpec& w = *o.workload;
    const bool pinned = o.seed == kPinnedSeed;
    Checker checker(pinned ? std::optional(w.pinned_all) : std::nullopt,
                    std::nullopt);
    std::vector<double> setup;
    std::vector<std::vector<double>> replay;  // [replay][round]
    std::int64_t steps = 0;
    std::int64_t settled = 0;
    std::size_t rounds = 0;
    const auto start = Clock::now();
    double last = 0.0;
    while (another_round(rounds, start, o.seconds, last)) {
        const auto t0 = Clock::now();
        const Round r = untraced_round(w, o.seed, w.traces);
        checker.check(r.digests, "untraced");
        setup.push_back(r.gen_s + r.resolve_s + r.build_s);
        replay.resize(r.replay_s.size());
        for (std::size_t i = 0; i < r.replay_s.size(); ++i)
            replay[i].push_back(r.replay_s[i]);
        steps = r.steps;
        settled = r.settled;
        for (int i = 0; i < kExtraSetups; ++i)
            setup.push_back(set_up(w, o.seed, w.traces).total_s());
        ++rounds;
        last = since(t0);
    }
    print_digests(w, o.seed, checker.reference());
    std::printf("rounds %zu, traces per round %d\n", rounds, w.traces);

    // Each replay's median over rounds, summed: a slow spell on the host
    // hits different replays in different rounds, and the medians drop it.
    double replay_total = 0.0;
    for (const std::vector<double>& samples : replay)
        replay_total += median(samples);
    const std::vector<Metric> e2e = {
        {"setup_s", median(setup), "s"},
        {"replay_s", replay_total / w.traces, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    // The check pins each seed's step and request counts, so these rates
    // move exactly with replay_s; they are printed, not gated on.
    std::vector<Metric> listed = e2e;
    listed.push_back(
        {"steps_per_s", static_cast<double>(steps) / replay_total, "1/s"});
    listed.push_back({"requests_per_s",
                      static_cast<double>(settled) / replay_total, "1/s"});
    listed.push_back({"replay_errors",
                      static_cast<double>(checker.failed()) /
                          static_cast<double>(checker.attempted()),
                      "share"});
    report(listed, e2e, checker.attempted(), checker.failed());
    return 0;
}

int
run_traced(const Options& o)
{
    const WorkloadSpec& w = *o.workload;
    const bool pinned = o.seed == kPinnedSeed;
    Checker checker(pinned ? std::optional(w.pinned_first) : std::nullopt,
                    pinned ? std::optional(w.pinned_switches)
                           : std::nullopt);
    const Trace trace = w.make(o.seed);
    std::vector<double> untraced_replay, gen, resolve, build;
    std::vector<double> traced_s, merge, loop_self, event_s, advance_s,
        evaluate_s, complete_s;
    std::unique_ptr<Traced> first;
    const auto start = Clock::now();
    double last = 0.0;
    while (another_round(traced_s.size(), start, o.seconds, last)) {
        const auto t0 = Clock::now();
        const Round r = untraced_round(w, o.seed, 1);
        checker.check(r.digests, "untraced");
        untraced_replay.push_back(
            std::accumulate(r.replay_s.begin(), r.replay_s.end(), 0.0));
        gen.push_back(r.gen_s);
        resolve.push_back(r.resolve_s);
        build.push_back(r.build_s);

        auto tr = std::make_unique<Traced>();
        traced_replay(trace, tr.get());
        checker.check(tr->digests, "traced");
        checker.check_mode_switches(tr->sink.mode_switches);
        const sim::ClusterProfile& p = tr->profile;
        const auto eng = p.components.find("engine");
        const double adv =
            eng == p.components.end() ? 0.0 : eng->second.wall_s;
        traced_s.push_back(tr->replay_s);
        merge.push_back(tr->merge_s);
        loop_self.push_back(p.run_wall_s - adv - p.event_wall_s);
        event_s.push_back(p.event_wall_s);
        advance_s.push_back(adv);
        evaluate_s.push_back(tr->sink.evaluate_s);
        complete_s.push_back(tr->sink.complete_s);
        if (!first)
            first = std::move(tr);
        last = since(t0);
    }
    print_digests(w, o.seed, checker.reference());
    std::printf("rounds %zu, trace 0 only\n", traced_s.size());

    // Counts repeat exactly across rounds; times are medians.
    const Traced& tr = *first;
    const LayerSink& s = tr.sink;
    const sim::ClusterProfile& p = tr.profile;
    const auto eng = p.components.find("engine");
    const sim::ClusterProfile::KindStats engine_stats =
        eng == p.components.end() ? sim::ClusterProfile::KindStats{}
                                  : eng->second;
    const auto at_least_one = [](std::int64_t n) {
        return static_cast<double>(std::max<std::int64_t>(n, 1));
    };
    const double steps = at_least_one(s.steps);
    const double gauges = at_least_one(s.gauges);

    std::int64_t kv_ops = 0;
    const auto concurrency = static_cast<std::size_t>(
        std::max(1.0, std::round(static_cast<double>(s.seqs) / steps)));
    std::vector<double> append_ns;
    for (int i = 0; i < 3; ++i) {
        append_ns.push_back(
            time_kv_pattern(trace.requests, tr, concurrency, &kv_ops));
    }

    const double adv = median(advance_s);
    const double eval = median(evaluate_s);
    const double complete = median(complete_s);
    const double events = median(event_s);
    const std::vector<Metric> layers = {
        {"sim.loop_self_s", median(loop_self), "s"},
        {"sim.events", static_cast<double>(p.events_fired), "count"},
        {"sim.ready_skips", static_cast<double>(p.ready_skips), "count"},
        {"sim.queue_high_water", static_cast<double>(p.queue_high_water),
         "count"},
        {"router.event_s", events, "s"},
        {"router.us_per_event", events * 1e6 / at_least_one(p.events_fired),
         "us"},
        {"router.hedges", static_cast<double>(tr.hedges), "count"},
        {"router.cancelled", static_cast<double>(tr.cancelled), "count"},
        {"router.expired", static_cast<double>(tr.expired), "count"},
        {"router.breaker_opens", static_cast<double>(tr.breaker_opens),
         "count"},
        {"engine.advance_s", adv, "s"},
        {"engine.advances", static_cast<double>(engine_stats.advances),
         "count"},
        {"engine.stalls", static_cast<double>(engine_stats.stalls), "count"},
        {"engine.us_per_step", adv * 1e6 / steps, "us"},
        {"scheduler.schedule_s", adv - eval - complete, "s"},
        {"scheduler.complete_s", complete, "s"},
        {"scheduler.steps", static_cast<double>(s.steps), "count"},
        {"scheduler.tokens_per_step", static_cast<double>(s.tokens) / steps,
         "tokens"},
        {"scheduler.seqs_per_step", static_cast<double>(s.seqs) / steps,
         "seqs"},
        {"scheduler.waiting_mean", s.waiting / gauges, "requests"},
        {"scheduler.preemptions", static_cast<double>(tr.preemptions),
         "count"},
        {"costmodel.evaluate_s", eval, "s"},
        {"costmodel.evals", static_cast<double>(tr.evals), "count"},
        {"shift.mode_switches", static_cast<double>(s.mode_switches),
         "count"},
        {"kvcache.append_ns", median(append_ns), "ns"},
        {"kvcache.util_mean", s.kv_util / gauges, "ratio"},
        {"kvcache.prefix_hit_ratio",
         static_cast<double>(tr.prefix_hit_tokens) /
             at_least_one(tr.prompt_tokens),
         "ratio"},
        {"kvcache.prefix_evictions", static_cast<double>(s.prefix_evictions),
         "count"},
        {"metrics.merge_s", median(merge), "s"},
        {"workload.gen_s", median(gen), "s"},
        {"core.resolve_s", median(resolve), "s"},
        {"core.build_s", median(build), "s"},
        {"obs.trace_overhead_s",
         median(traced_s) - median(untraced_replay), "s"},
    };
    std::vector<Metric> listed = layers;
    listed.push_back(
        {"kvcache.pattern_ops", static_cast<double>(kv_ops), "count"});
    report(listed, layers, checker.attempted(), checker.failed());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options o = parse(argc, argv);
    return o.trace ? run_traced(o) : run_untraced(o);
}
