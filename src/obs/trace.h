/**
 * @file
 * The observability event bus: typed simulation events and the `TraceSink`
 * consumer interface.
 *
 * `Engine`, `Scheduler`, `Router`, `ShiftController`, and `CacheManager`
 * publish here; sinks (Chrome-trace export, counters, tests) subscribe by
 * implementing `TraceSink`. Publication sites are guarded by a null check
 * on the borrowed sink pointer, so a run without a sink attached executes
 * exactly the seed code path — simulation results are bit-identical with
 * tracing on or off because sinks only *observe* state, never mutate it.
 *
 * Engine identity: sinks allocate globally unique engine ids via
 * `register_engine`, letting one sink span multiple deployments in a
 * single trace (e.g. the four strategies of a comparison figure, or the
 * prefill + decode pools of a disaggregated system).
 */

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "parallel/config.h"
#include "parallel/perf_model.h"

namespace shiftpar::obs {

/** Globally unique engine/track identifier within one sink. */
using EngineId = int;

/** Request identifier (mirrors engine::RequestId without the dependency). */
using RequestId = std::int64_t;

/** Request lifecycle transitions (Section 2.1's serving pipeline). */
enum class RequestPhase
{
    kSubmit,         ///< entered an engine's waiting queue
    kRouted,         ///< router picked a replica (DP deployments)
    kMigrated,       ///< rebalanced to another replica before progress
    kFirstSchedule,  ///< first chunk scheduled (ends queueing delay)
    kPrefillChunk,   ///< one chunked-prefill piece scheduled
    kPreempt,        ///< recompute-preempted (KV released)
    kResume,         ///< rescheduled after a preemption
    kFirstToken,     ///< first output token produced (TTFT point)
    kFinish,         ///< all output tokens produced
    kCancel,         ///< client abort
    kRetried,        ///< re-routed to a survivor after a replica failure
    kLost,           ///< dropped permanently (retries exhausted)
    kShed,           ///< rejected by the degraded-mode admission guard
    kExpired,        ///< evicted past its completion deadline
    kHedged,         ///< duplicated onto another replica (hedged retry)
    kHedgeWon,       ///< a hedged request's first copy completed
    kHedgeLost,      ///< the losing hedge copy was resolved
    kDrained,        ///< handed back by a gracefully draining replica
};

/** @return a stable lowercase name for a phase ("submit", "preempt", ...). */
const char* phase_name(RequestPhase phase);

/** One request lifecycle event. */
struct RequestEvent
{
    EngineId engine = 0;
    RequestId request = 0;
    RequestPhase phase = RequestPhase::kSubmit;

    /** Simulated time, seconds. */
    double t = 0.0;

    /** Phase payload: chunk tokens (kPrefillChunk), prompt tokens
     *  (kSubmit), output tokens (kFinish); 0 otherwise. */
    std::int64_t tokens = 0;

    /**
     * Causal span index within this request's lifecycle: 0 for the
     * request's first event, incrementing per event, so a consumer can
     * rebuild the arrival → admit → prefill → decode → complete chain
     * (including retry/migrate detours) without trusting timestamps to
     * break ties. Stamped by `TraceSink::publish_request`; -1 marks an
     * event delivered without stamping (direct `on_request` calls).
     */
    std::int64_t span = -1;
};

/** One engine iteration (the per-step telemetry of Figs. 7/15). */
struct StepEvent
{
    EngineId engine = 0;
    double start = 0.0;
    double end = 0.0;
    std::int64_t batched_tokens = 0;  ///< Alg. 2 decision input
    std::int64_t num_seqs = 0;
    parallel::ParallelConfig cfg;     ///< configuration executed
    bool shifted = false;             ///< ran the shift (SP=1) config
    bool sliced = false;              ///< weights sliced on the fly
    parallel::StepTiming timing;
};

/** A shift/unshift transition (Algorithm 2 firing). */
struct ModeSwitchEvent
{
    EngineId engine = 0;
    double t = 0.0;
    bool to_shift = false;  ///< true: base -> shift; false: shift -> base
    std::int64_t batched_tokens = 0;
    parallel::ParallelConfig from;
    parallel::ParallelConfig to;
};

/** Kinds of injected-fault transitions on an engine. */
enum class FaultKind
{
    kFail,           ///< fail-stop: the engine drops all in-flight state
    kRecover,        ///< the engine rejoins with an empty KV cache
    kStraggleStart,  ///< per-step slowdown applied (magnitude = factor)
    kStraggleEnd,    ///< straggler back to full speed
    kDrainStart,     ///< graceful drain: admission stopped, queue handed back
    kDrainEnd,       ///< drained engine re-admitting new work
    kBreakerOpen,    ///< circuit breaker tripped: replica receives no traffic
    kBreakerHalfOpen,///< breaker probing: one request admitted
    kBreakerClose,   ///< breaker closed: replica healthy again
};

/** @return a stable lowercase name for a fault kind ("fail", ...). */
const char* fault_kind_name(FaultKind kind);

/** One fault/recovery transition (published by the failing component). */
struct FaultEvent
{
    EngineId engine = 0;
    FaultKind kind = FaultKind::kFail;

    /** Simulated time, seconds. */
    double t = 0.0;

    /** Slowdown factor for straggle transitions; 0 otherwise. */
    double magnitude = 0.0;

    /** In-flight requests dropped by a kFail transition; 0 otherwise. */
    std::int64_t dropped_requests = 0;
};

/** Sampled engine gauges (taken after every step). */
struct GaugeEvent
{
    EngineId engine = 0;
    double t = 0.0;
    double kv_utilization = 0.0;       ///< KV-block pool occupancy [0,1]
    std::int64_t kv_free_tokens = 0;
    std::int64_t waiting = 0;          ///< queue depth
    std::int64_t running = 0;          ///< admitted sequences
    std::int64_t outstanding_tokens = 0;
};

/** Static engine description emitted once at registration. */
struct EngineMeta
{
    EngineId engine = 0;
    std::string label;  ///< e.g. "shift/engine 0 (SP=4,TP=2)"
    parallel::ParallelConfig base;
    std::int64_t shift_threshold = 0;  ///< 0 when the engine never shifts
};

/** Consumer interface; default implementations ignore everything. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * Allocate a unique engine id and announce the engine to the sink.
     * `meta.engine` is overwritten with the allocated id, which the caller
     * must use for all subsequent events from that engine. Thread-safe:
     * parallel sweep workers may build deployments concurrently against a
     * shared sink (id allocation and the `on_engine_meta` callback happen
     * under one lock, so ids are unique and registration is atomic).
     */
    EngineId register_engine(EngineMeta meta);

    /**
     * Deliver a request lifecycle event with its causal `span` stamped:
     * the request's events number 0, 1, 2, ... in publication order,
     * forming the per-request span chain `tools/tracestat` rebuilds.
     * Producers (Engine/Scheduler/Router/fault paths) publish through
     * this; `on_request` remains the consumer callback. Thread-safe for
     * the same reason `register_engine` is.
     */
    void publish_request(RequestEvent ev);

    /**
     * Start a new logically separate run: resets the per-request span
     * counters (request ids restart per run) and forwards the label to
     * `on_run_label` for sinks that group output by run.
     */
    void set_run_label(const std::string& label);

    virtual void on_request(const RequestEvent&) {}
    virtual void on_step(const StepEvent&) {}
    virtual void on_mode_switch(const ModeSwitchEvent&) {}
    virtual void on_gauge(const GaugeEvent&) {}
    virtual void on_fault(const FaultEvent&) {}

    /** Free-form point event (e.g. a prefix-cache eviction). */
    virtual void on_instant(EngineId, double /*t*/,
                            const std::string& /*name*/)
    {
    }

  protected:
    /** Registration callback for subclasses (id already assigned). */
    virtual void on_engine_meta(const EngineMeta&) {}

    /** Run-label callback for subclasses (spans already reset). */
    virtual void on_run_label(const std::string&) {}

  private:
    std::mutex register_mutex_;
    EngineId next_engine_ = 0;  // shiftlint-guarded(register_mutex_)

    std::mutex span_mutex_;
    // shiftlint-guarded(span_mutex_)
    std::unordered_map<RequestId, std::int64_t> next_span_;
};

} // namespace shiftpar::obs
