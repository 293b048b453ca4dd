/**
 * @file
 * Continuous-batching scheduler with chunked prefill.
 *
 * Mirrors the vLLM v1 scheduling policy the paper's system plugs into:
 * every iteration assembles a batch of (a) one decode token per running
 * sequence and (b) prefill chunks from admitted/waiting requests, subject to
 * a batched-token budget (`max_batched_tokens`). KV blocks are acquired at
 * scheduling time; decode steps that cannot get a block trigger recompute
 * preemption of the most recently admitted sequence (vLLM's policy). The
 * per-iteration batched-token count produced here is exactly the input of
 * the Shift Parallelism decision (Algorithm 2).
 */

#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "engine/metrics.h"
#include "engine/request.h"
#include "kvcache/cache_manager.h"
#include "obs/trace.h"
#include "parallel/perf_model.h"

namespace shiftpar::engine {

/** Scheduler tuning (vLLM-equivalent knobs). */
struct SchedulerOptions
{
    /** Token budget per iteration (vLLM max_num_batched_tokens). */
    std::int64_t max_batched_tokens = 8192;

    /** Maximum concurrently admitted sequences (vLLM max_num_seqs). */
    std::int64_t max_running_seqs = 1024;

    /**
     * Output tokens emitted per decode step (speculative decoding's
     * expected accepted length; 1 = standard autoregressive decoding).
     */
    std::int64_t decode_tokens_per_step = 1;

    /**
     * Automatic prefix caching (vLLM APC equivalent): serve shared prompt
     * prefixes (RequestSpec::prefix_id) from the KV cache.
     */
    bool enable_prefix_caching = true;
};

/** One request's share of an iteration. */
struct ScheduledChunk
{
    Request* request = nullptr;

    /** New tokens processed this step (>= 1). */
    std::int64_t new_tokens = 0;

    /** Cached context before this chunk. */
    std::int64_t past = 0;

    /** True when this chunk is prefill work (false: one decode token). */
    bool is_prefill = false;
};

/** The batch an iteration will execute. */
struct BatchPlan
{
    /** The chunks in scheduling order; grown only through `push`. */
    std::vector<ScheduledChunk> chunks;

    /** @return true when nothing was schedulable. */
    bool empty() const { return chunks.empty(); }

    /** Append `c` and add it to `work()`. */
    void push(const ScheduledChunk& c)
    {
        chunks.push_back(c);
        work_.add(c.new_tokens, c.past, c.is_prefill);
    }

    /** Remove `r`'s chunk, if any, and take it out of `work()`.
     *  @return its new tokens (0 when `r` had none). */
    std::int64_t retract(const Request* r);

    /** @return the per-phase sums the cost models price this batch from;
     *  its `total_new_tokens()` is the Alg. 2 "batch size". */
    const parallel::BatchWork& work() const { return work_; }

  private:
    parallel::BatchWork work_;  ///< the sums of `chunks`, kept as pushed
};

/** FCFS continuous-batching scheduler bound to one engine's KV cache. */
class Scheduler
{
  public:
    Scheduler(SchedulerOptions opts, kvcache::CacheManager* cache);

    /** Attach an observability sink (borrowed; null disables tracing). */
    void set_trace(obs::TraceSink* sink, obs::EngineId id)
    {
        trace_ = sink;
        trace_id_ = id;
    }

    /** Add a request to the waiting queue (FCFS by submission order). */
    void enqueue(Request* r);

    /**
     * Take a *steady* step if one is due: after the last full step every
     * running request is decoding and none finished or waits, nothing
     * has entered or left the queues since, `decode_tokens_per_step` (k)
     * tokens each fit the budget, no request finishes this step, `now`
     * is before the deadline floor and the step's block crossings fit the
     * free blocks. The full path would then plan k decode tokens for
     * every running request, so the step costs O(k) here: one pool
     * charge, the outstanding total and the decode sums. Per-request
     * progress is written back by the next other entry point.
     *
     * @return the step's work, or nullopt when the step must take the
     * full `schedule` / `on_step_complete` path.
     */
    std::optional<parallel::BatchWork> steady_step(double now);

    /**
     * Assemble the next iteration's batch, acquiring KV blocks as needed.
     *
     * @param now Current engine time (stamps first_scheduled).
     * @return the plan; empty when no request can make progress (all
     * waiting requests blocked on KV with nothing running to preempt).
     */
    BatchPlan schedule(double now);

    /**
     * Cancel a live (waiting or running) request (client abort): removes
     * it from whichever queue it occupies and releases its cache state.
     */
    void cancel(Request* r);

    /**
     * Remove the youngest zero-progress waiting request (arrived by
     * `now`, never scheduled, holding no KV or prefix state) whose total
     * context is at most `max_tokens`, for cross-replica migration.
     * Stealing from the back of the queue disturbs FCFS the least: the
     * victim re-enters another replica's queue as if freshly routed
     * there. The size cap lets the router refuse moves that would flip
     * the imbalance rather than shrink it.
     *
     * @return the removed request (state set to kMigrated), or null.
     */
    Request* steal_waiting(double now, std::int64_t max_tokens);

    /**
     * Sweep out (see `take_if`) every live request whose deadline has
     * passed (deadline > 0 and deadline <= now) as kExpired. O(1) while
     * `now` is before the deadline floor (a lower bound on every live
     * deadline), so a run without due deadlines never sweeps.
     *
     * @return the evicted requests, running first then waiting.
     */
    std::vector<Request*> expire_due(double now);

    /**
     * @return the earliest completion deadline among live requests, or
     * +inf when none carries one (used by the engine to wake up and
     * expire work even when nothing is schedulable).
     */
    double earliest_deadline() const;

    /**
     * Graceful drain: sweep out every waiting request as kMigrated, so
     * the router can re-admit it elsewhere. Running requests finish here.
     *
     * @return the removed requests in queue order.
     */
    std::vector<Request*> drain_waiting();

    /**
     * Fail-stop: sweep out every live request as kLost (fault
     * injection), in the deterministic order a router retries them in.
     *
     * @return the dropped requests, running first then waiting.
     */
    std::vector<Request*> fail_all();

    /**
     * Apply the effects of a completed step: advance prefill progress,
     * emit tokens, finish requests (releasing their KV), and arm a steady
     * run when the next step qualifies (see `steady_step`).
     *
     * @param now Step end time.
     * @param plan The plan returned by `schedule`.
     * @param[out] finished Requests that completed this step.
     */
    void on_step_complete(double now, const BatchPlan& plan,
                          std::vector<Request*>* finished);

    /** @return true while any request is waiting or running. */
    bool has_work() const
    {
        return !waiting_.empty() || !running_.empty();
    }

    /** @return queued (not yet admitted) request count. */
    std::size_t num_waiting() const { return waiting_.size(); }

    /** @return admitted (KV-holding) request count. */
    std::size_t num_running() const { return running_.size(); }

    /**
     * @return total unprocessed tokens (prefill plus output) across
     * queued and running requests: a running total, O(1).
     */
    std::int64_t outstanding_tokens() const { return outstanding_; }

    /**
     * Debug oracle, O(n): recounts the waiting and running requests, the
     * running ones taken `k·steps` tokens ahead while a steady run is
     * open, and checks the outstanding total, the deadline floor and the
     * pool's used KV blocks. While a run is armed it also checks that
     * every request is decoding, that the run counts them all and that
     * its next-step sums match the recount. `Engine` asserts it after
     * every step and terminal path in Debug builds.
     */
    bool consistent() const;

    /**
     * @return the earliest arrival time among waiting requests, or +inf
     * when none are waiting (used by the engine to skip idle time).
     */
    double earliest_waiting_arrival() const;

    /** @return total preemptions performed. */
    std::int64_t preemption_count() const { return preemptions_; }

  private:
    friend struct SchedulerTestPeer;  // corrupts the steady run on purpose

    /**
     * Write the steady steps taken so far back into each running request
     * (`decoded` and KV tokens; the pool was charged step by step) and end
     * the run. O(1) when the run took no steady step. Every entry point
     * that reads or changes a running request calls it first.
     */
    void materialize();

    /**
     * The steady run `steady_step` advances, armed by `on_step_complete`.
     * Between materializations the running requests are `steps` steps
     * behind: each owes k·steps more `decoded` and KV tokens.
     */
    struct SteadyRun
    {
        bool armed = false;
        std::int64_t seqs = 0;   ///< D: running requests, all decoding
        std::int64_t steps = 0;  ///< steady steps taken, not yet written
        std::int64_t limit = 0;  ///< steps before the first request ends
        parallel::BatchWork work;  ///< the next steady step's sums
        /** Requests per KV-token residue mod block size at arming. */
        std::vector<std::int64_t> residues;
    };

    /** @return blocks the next steady step's appends need. */
    std::int64_t steady_blocks() const;

    /**
     * Free KV by recompute-preempting the most recently admitted running
     * request other than `keep`, retracting the victim's chunk from `plan`
     * if it had already been scheduled this step.
     *
     * @return the retracted token count (0 when the victim had no chunk in
     * `plan`) so the caller can refund its step budget, or -1 when no
     * victim could be preempted.
     */
    std::int64_t preempt_one(const Request* keep, BatchPlan* plan);

    /**
     * Schedule one prefill chunk for `r` within `budget`, splitting the
     * chunk between the shared prefix entry (when `r` is its filler) and
     * the request's private blocks.
     *
     * @return tokens scheduled (0 when blocked).
     */
    std::int64_t schedule_prefill(Request* r, std::int64_t budget,
                                  BatchPlan* plan);

    /** Pin `r` to its shared prefix entry and apply the cache hit. */
    void attach_prefix_if_needed(Request* r);

    /** Take `r`'s owed tokens off the outstanding total and release its
     *  KV blocks and prefix pin: the one way a request leaves the queues
     *  (finish, preemption, cancel, steal, every sweep). */
    void retire(Request* r);

    /**
     * Remove and retire every request matching `pred`, running ones in
     * admission order, then waiting ones in queue order, and reset the
     * deadline floor to the survivors' minimum. @return the removed
     * requests in that order (no allocation when nothing matches).
     */
    template <typename Pred>
    std::vector<Request*> take_if(Pred pred);

    /** Insert into the waiting queue by priority class. */
    void insert_waiting(Request* r, bool front_of_class);

    /** Remove `it` from the waiting queue; @return the next position. */
    std::deque<Request*>::iterator
    erase_waiting(std::deque<Request*>::iterator it);

    /** Publish a lifecycle event when a sink is attached. */
    void publish(const Request* r, obs::RequestPhase phase, double t,
                 std::int64_t tokens = 0) const;

    SchedulerOptions opts_;
    kvcache::CacheManager* cache_;
    std::deque<Request*> waiting_;   // descending class, FCFS within
    std::vector<Request*> running_;  // admission order
    /** Waiting requests already prefilled (migrated-in decode work). */
    std::size_t waiting_prefilled_ = 0;
    /** Running prefills in class order (prefill-pass buffer, reused). */
    std::vector<Request*> prefilling_;
    std::int64_t preemptions_ = 0;
    /** Running sum of every waiting and running request's owed tokens. */
    std::int64_t outstanding_ = 0;
    /** Lower bound on every live deadline (+inf: none live); `enqueue`
     *  lowers it and each `take_if` sweep makes it exact. */
    double deadline_floor_ = std::numeric_limits<double>::infinity();
    obs::TraceSink* trace_ = nullptr;
    obs::EngineId trace_id_ = 0;
    double sched_now_ = 0.0;  ///< time of the in-progress schedule() call
    SteadyRun run_;
};

} // namespace shiftpar::engine
