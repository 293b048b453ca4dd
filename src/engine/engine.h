/**
 * @file
 * The inference engine: one rank group running continuous batching under a
 * per-step execution policy.
 *
 * Each `step()` (i) assembles a batch via the scheduler, (ii) asks the
 * `ExecutionPolicy` which configuration to run it under — this is where
 * Shift Parallelism's Algorithm 2 plugs in — (iii) verifies the chosen
 * configuration's KV layout is invariant with the cache (Section 3.3.1),
 * (iv) advances the clock by the perf-model step time, and (v) applies the
 * step's effects. DP deployments instantiate several engines behind a
 * `Router`.
 */

#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/metrics.h"
#include "engine/request.h"
#include "engine/scheduler.h"
#include "kvcache/cache_manager.h"
#include "obs/trace.h"
#include "parallel/cost_model_factory.h"
#include "parallel/memory.h"
#include "parallel/perf_model.h"
#include "sim/component.h"

namespace shiftpar::engine {

/** Chooses the execution configuration for one step (Algorithm 2 hook). */
class ExecutionPolicy
{
  public:
    /** A per-step decision. */
    struct Choice
    {
        parallel::ParallelConfig cfg;

        /** True when shift-mode weights come from on-the-fly slicing. */
        bool sliced = false;
    };

    virtual ~ExecutionPolicy() = default;

    /**
     * @param batched_tokens The step's batch size (Alg. 2 input).
     * @return the configuration to execute this step under.
     */
    virtual Choice choose(std::int64_t batched_tokens) const = 0;

    /**
     * Attach the engine's trace bus (called once at construction when
     * tracing is on). `clock` points at the engine's simulated-time
     * counter and outlives the policy. Policies that make mode decisions
     * (the ShiftController) publish their transitions here; the default
     * is a no-op.
     */
    virtual void attach_trace(obs::TraceSink* /*sink*/, obs::EngineId /*id*/,
                              const double* /*clock*/)
    {
    }
};

/** Always run the same configuration (plain DP/TP/SP/SP+TP engines). */
class FixedPolicy : public ExecutionPolicy
{
  public:
    explicit FixedPolicy(parallel::ParallelConfig cfg) : cfg_(cfg) {}

    Choice choose(std::int64_t) const override { return {cfg_, false}; }

  private:
    parallel::ParallelConfig cfg_;
};

/** Engine construction parameters. */
struct EngineConfig
{
    /** The base (SP, TP) decomposition of this engine's rank group. */
    parallel::ParallelConfig base;

    SchedulerOptions sched;
    parallel::PerfOptions perf;
    parallel::MemoryOptions mem;

    /** Which step-cost model prices each iteration (default: roofline). */
    parallel::CostModelSpec cost;

    /**
     * Record cost-model telemetry (evaluation counter, per-kernel
     * time-share histograms) into `obs::MetricsRegistry::current()`. Off
     * by default; with it off the engine never touches the registry, so
     * default runs' reports stay byte-identical.
     */
    bool cost_metrics = false;

    /** Weight-handling strategy for shift mode (Section 3.3.2). */
    parallel::WeightStrategy weights =
        parallel::WeightStrategy::kSeparateModels;

    /** Reserve the shift model's weights per Eq. (1). */
    bool with_shift_model = false;

    /** KV block size, tokens. */
    int block_size = 16;

    /** Throughput timeline bin width, seconds. */
    double throughput_bin = 1.0;

    /**
     * Observability sink (borrowed, may be null). When set, the engine,
     * its scheduler, and its KV cache publish lifecycle/step/gauge events
     * under `trace_id`. Null disables tracing at zero cost — simulation
     * results are bit-identical either way.
     */
    obs::TraceSink* trace = nullptr;

    /** Engine id on the trace bus (from `TraceSink::register_engine`). */
    obs::EngineId trace_id = 0;
};

/**
 * One serving engine over one rank group.
 *
 * An engine is a `sim::Component` and has no drive loop of its own: a
 * `sim::Cluster` advances it one scheduler iteration at a time,
 * interleaved with other engines' steps and with client events
 * (arrivals, KV handoffs, migrations) in global time order.
 */
class Engine : public sim::Component
{
  public:
    /**
     * Build an engine; fatal() when the model does not fit the group's
     * memory under `cfg`.
     */
    Engine(const hw::Node& node, const model::ModelConfig& m,
           EngineConfig cfg, std::unique_ptr<ExecutionPolicy> policy);

    /**
     * Submit a request (arrival time may be in this engine's past).
     * `migrated_in` marks a request received through cross-replica
     * migration; such requests are never stolen again (one hop each).
     */
    void submit(const RequestSpec& spec, RequestId id,
                bool migrated_in = false);

    /**
     * Submit a request whose prompt was already prefilled elsewhere (a
     * decode worker receiving a migrated request in a disaggregated
     * deployment, Section 5). The prompt's KV is materialized on
     * admission without compute — the KV-transfer time is the caller's to
     * model via `spec.arrival` — and `already_decoded` output tokens are
     * credited (the prefill worker produced the first token).
     */
    void submit_prefilled(const RequestSpec& spec, RequestId id,
                          std::int64_t already_decoded = 1);

    /** sim::Component: the profiler attributes this engine's wall time
     *  under "engine". */
    const char* kind() const override { return "engine"; }

    /**
     * sim::Component: earliest time this engine could act — its clock
     * while a step is attemptable (something running, or an arrived
     * request waiting), the earliest future arrival while it is idle
     * until one, +inf when it has no work.
     */
    double next_event_time() const override;

    /**
     * sim::Component: make one unit of progress — execute a single step,
     * or skip idle time to the next arrival when that lands within `t`.
     *
     * @return false when no progress is possible (no work, or every
     * schedulable request is blocked on KV) — the cluster parks the
     * engine until another event could unblock it.
     */
    bool advance_to(double t) override;

    /**
     * Advance the clock without doing work (never backwards). The router
     * syncs every replica to each arrival instant this way before routing
     * it, so an idle replica's next step starts no earlier than the
     * arrival. Moving the clock can promote a future-arrival wait into
     * "ready now", so the ready cache is notified.
     */
    void advance_clock_to(double t)
    {
        if (t > now_) {
            now_ = t;
            notify_ready_changed();
        }
    }

    /**
     * Remove and return the youngest waiting request that has made no
     * progress (never scheduled, no KV, no prefix pin, arrival in this
     * engine's past, not itself migrated in) and whose total context
     * fits `max_tokens`, so a
     * router can re-submit it on another replica. The request is freed
     * here: it leaves this engine permanently and produces no record.
     *
     * @return the spec and id, or nullopt when nothing is stealable.
     */
    std::optional<std::pair<RequestSpec, RequestId>> steal_waiting(
        std::int64_t max_tokens =
            std::numeric_limits<std::int64_t>::max());

    /**
     * Install a hook fired as each request completes, before the request
     * is recorded into this engine's metrics. Returning false suppresses
     * the metrics record (step/throughput accounting is unaffected) —
     * the router uses this to keep a losing hedge copy that finished
     * before its cancel event from double-reporting its logical request.
     * The disaggregated pipeline uses the hook to schedule KV handoffs
     * the moment prefill finishes. Null disables (always record).
     */
    void set_on_finish(std::function<bool(const Request&)> hook)
    {
        on_finish_ = std::move(hook);
    }

    /**
     * Install a hook fired when a request is evicted past its completion
     * deadline (after the scheduler released its state). The router uses
     * it to settle the request's lifecycle outcome. Null disables.
     */
    void set_on_expire(std::function<void(RequestId)> hook)
    {
        on_expire_ = std::move(hook);
    }

    /** @return current simulated time, seconds. */
    double now() const { return now_; }

    /** @return true while any request is unfinished. */
    bool has_work() const { return scheduler_.has_work(); }

    /** @return requests held here, exactly the waiting + running ones. */
    std::size_t live_requests() const { return live_.size(); }

    /** @return unprocessed tokens across queued + running requests. */
    std::int64_t outstanding_tokens() const
    {
        return scheduler_.outstanding_tokens();
    }

    /** @return collected telemetry. */
    const Metrics& metrics() const { return metrics_; }

    /** @return per-GPU memory plan in force. */
    const parallel::MemoryPlan& memory_plan() const { return mem_plan_; }

    /** @return the KV cache (for inspection in tests). */
    const kvcache::CacheManager& cache() const { return cache_; }

    /** @return total preemptions performed. */
    std::int64_t preemption_count() const
    {
        return scheduler_.preemption_count();
    }

    /**
     * Cancel a live request (client abort between steps): its queue slot
     * and KV cache are released immediately and it produces no record.
     *
     * @return false when `id` is not live (waiting or running) here.
     */
    bool cancel(RequestId id);

    /** @return requests cancelled so far. */
    std::int64_t cancelled_count() const { return cancelled_; }

    /** @return requests evicted past their deadline so far. */
    std::int64_t expired_count() const { return expired_; }

    /**
     * @return true when `id` is live here, still queued, and has never
     * been scheduled — i.e. zero sunk work, the precondition a router
     * checks before duplicating the request onto another replica (hedged
     * retry) so the two copies never both burn compute.
     */
    bool queued_unscheduled(RequestId id) const;

    /**
     * Begin a graceful drain at time `t`: admission stops (`submit`
     * asserts), every still-waiting request is handed back for the
     * caller to re-route, and running requests continue to completion
     * here. Publishes a `drain_start` fault transition. Invalid on a
     * failed or already-draining engine.
     *
     * @return the handed-back (spec, id) pairs in queue order.
     */
    std::vector<std::pair<RequestSpec, RequestId>> start_drain(double t);

    /**
     * End a drain at time `t`: the engine admits new work again.
     * Publishes a `drain_end` fault transition. Only valid while
     * draining.
     */
    void resume_admission(double t);

    /** @return true while draining (admission closed). */
    bool draining() const { return draining_; }

    /**
     * Fail-stop this engine at time `t` (fault injection): every live
     * request is dropped with its KV state — running requests first
     * (admission order) then waiting ones (queue order) — and the
     * engine's HBM contents, including idle prefix-cache entries, are
     * destroyed. Because the engine models a whole SP x TP rank group,
     * losing any one rank takes the entire group down: TP-heavy
     * deployments lose all their GPUs to one fault while DP deployments
     * lose a single replica's share. A failed engine reports no events
     * and makes no progress until `recover()`.
     *
     * @return the dropped requests' (spec, id) pairs in drop order, for a
     * router to retry elsewhere. Finished requests are unaffected.
     */
    std::vector<std::pair<RequestSpec, RequestId>> fail(double t);

    /**
     * Rejoin the cluster at time `t` with an empty KV cache and healthy
     * (1x) speed. Only valid on a failed engine.
     */
    void recover(double t);

    /** @return true while fail-stopped. */
    bool failed() const { return failed_; }

    /**
     * Straggler injection: scale every subsequent step's full timing by
     * `factor` (> 1 slows; exactly 1 restores and is bit-identical to an
     * unfaulted run). Publishes a straggle_start/straggle_end trace
     * transition at time `t`.
     */
    void set_slowdown(double factor, double t);

    /**
     * Interconnect degradation: scale the communication component of
     * every subsequent step by `factor` (1 restores, bit-identically).
     * Publishes a link_degrade/link_restore trace transition at `t`.
     */
    void set_comm_multiplier(double factor, double t);

    /** @return GPUs in this engine's rank group (SP x TP). */
    int num_gpus() const { return cfg_.base.world(); }

    /** @return this engine's id on the trace bus (0 when untraced). */
    obs::EngineId trace_id() const { return cfg_.trace_id; }

  private:
    /** Execute one iteration; @return false when nothing was schedulable. */
    bool step();

    /**
     * Evict deadline-passed requests at the current clock; fires
     * `on_expire_` per eviction. @return true when anything expired.
     */
    bool expire_now();

    /** Free requests just made terminal; Debug-check conservation. */
    void free_terminal(std::span<Request* const> done);

    /** Record the eval counter + kernel-share histograms for one step. */
    void record_cost_metrics(
        const parallel::StepTiming& timing,
        const std::vector<parallel::KernelCost>& breakdown) const;

    model::ModelConfig model_;
    EngineConfig cfg_;
    std::unique_ptr<const model::CostModel> cost_model_;
    parallel::MemoryPlan mem_plan_;
    kvcache::CacheManager cache_;
    kvcache::KvLayout shift_layout_;
    Scheduler scheduler_;
    std::unique_ptr<ExecutionPolicy> policy_;
    Metrics metrics_;
    parallel::BatchWork work_;  ///< step()'s cost-model input, reused
    /** Waiting and running requests by id, each freed once terminal.
     *  Never iterated: queue order is the scheduler's. */
    std::unordered_map<RequestId, std::unique_ptr<Request>> live_;
    std::function<bool(const Request&)> on_finish_;
    std::function<void(RequestId)> on_expire_;
    double now_ = 0.0;
    std::int64_t cancelled_ = 0;
    std::int64_t expired_ = 0;
    bool failed_ = false;
    bool draining_ = false;  ///< graceful drain: admission closed
    double slowdown_ = 1.0;         ///< straggler factor (1 = healthy)
    double comm_multiplier_ = 1.0;  ///< interconnect factor (1 = healthy)
};

} // namespace shiftpar::engine
