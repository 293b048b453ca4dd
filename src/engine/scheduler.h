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

/**
 * The batch an iteration will execute: the decode group's members
 * (advanced implicitly, k tokens each; only their sums are in `work()`)
 * plus the explicit chunks.
 */
struct BatchPlan
{
    /** The explicit chunks in scheduling order; grown only through
     *  `push`. */
    std::vector<ScheduledChunk> chunks;

    /** @return true when nothing was schedulable. */
    bool empty() const { return work_.num_seqs() == 0; }

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
    friend class Scheduler;  // starts each plan from the group's sums

    parallel::BatchWork work_;  ///< the group's sums plus `chunks`'
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
     * Assemble the next iteration's batch, acquiring KV blocks as needed.
     *
     * The decode group's members are planned implicitly when the step
     * needs no budget clip for its decoders and their blocks fit, after
     * idle prefix evictions and preemptions of prefills at the back of
     * the running set if need be. Otherwise (the fallback) every decoder
     * is planned in admission order, preempting on shortage; the members
     * stay in the group unless the budget clips the pass, which
     * dissolves it first.
     * Either way the plan and its sums are those of the full pass.
     *
     * @param now Current engine time (stamps first_scheduled).
     * @return the plan, valid until the next call; empty when no request
     * can make progress (all waiting requests blocked on KV with nothing
     * running to preempt).
     */
    const BatchPlan& schedule(double now);

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
     * Apply the effects of a completed step: advance the decode group,
     * advance prefill progress, emit tokens, finish requests (releasing
     * their KV) and let new decoders join the group. Walks only the
     * plan's explicit chunks, plus the running set after a fallback.
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
     * decode group's members taken their lag ahead, and checks the
     * outstanding total, the deadline floor, the pool's used KV blocks,
     * the group (size, residue classes, next-step sums, finish heap and
     * every request's `heap_slot`), the running-prefill list and the
     * migrated-waiting count. Asserted after every completed step and
     * terminal path in Debug builds.
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
    friend struct SchedulerTestPeer;  // dissolves or corrupts the group

    /** Why the last `schedule` planned its decoders as it did. */
    enum class Path : std::uint8_t
    {
        kGroup,      ///< group step: members planned implicitly
        kDissolved,  ///< fallback: the group had been dissolved
        kBudget,     ///< fallback: decode tokens overrun the budget
        kRoomMade,   ///< group step after `make_room`
        kShortage,   ///< fallback: decode blocks exceed the free blocks
                     ///< and `make_room` bailed out (members stay in the
                     ///< group)
    };

    /** One decode-group member in the finish heap. */
    struct Member
    {
        std::int64_t finish;    ///< epoch of the group step that ends it
        std::int64_t admitted;  ///< admission stamp: ties keep plan order
        Request* request;
    };

    /**
     * The decode group: every running request that is decoding (while
     * `complete`) advances k tokens per group step without being read.
     * A member's `decoded` and KV tokens lag k·(epoch − synced_epoch); a
     * request that is not a member has `synced_epoch` and `heap_slot` −1.
     */
    struct DecodeGroup
    {
        bool complete = true;  ///< every running decoder is a member
        std::int64_t epoch = 0;  ///< group steps taken
        std::int64_t shift = 0;  ///< k·epoch mod block size
        /** The members' next-step decode sums (`decodes.seqs` = size). */
        parallel::BatchWork work;
        /** Members per (KV tokens − k·epoch) mod block size: constant
         *  while a member advances with the group. */
        std::vector<std::int64_t> classes;
        /** Min-heap on (finish, admitted) over every member; each
         *  member's `heap_slot` is its index. */
        std::vector<Member> heap;
    };

    /** Write `r`'s lagging group progress into it (`decoded`, KV). */
    void sync(Request* r);

    /** Add synced decoder `r` to the group. */
    void join(Request* r);

    /** Take member `r`'s class and sums, at `kv_tokens` KV tokens, out
     *  of the group (the caller removes its heap entry). */
    void leave(const Request* r, std::int64_t kv_tokens);

    /** Move the heap entry at `slot` up or down to its place, writing
     *  the `heap_slot` of every entry it moves. */
    void sift(std::size_t slot);

    /**
     * Take member `r` out of the group and, in O(log D) through its
     * `heap_slot`, out of its heap, its progress written back. A member
     * this step's pass has planned also gives back its k tokens of plan
     * work and `decoded`. @return those tokens (0 when it was not
     * planned).
     */
    std::int64_t drop_member(Request* r);

    /** Sync every member and empty the group until a step has planned
     *  every decoder again (a budget clip; tests use it to force the
     *  fallback). */
    void dissolve();

    /** @return the residue class of a member at `kv_tokens` KV tokens. */
    std::int64_t residue_class(std::int64_t kv_tokens) const;

    /** @return blocks the members' next k-token appends cross into. */
    std::int64_t group_blocks() const;

    /**
     * Plan a group step: this step's finishers leave the group and, with
     * the requests migrated in at `running_[migrated_from..]`, decode
     * explicitly in admission order. @return false (finishers left and
     * synced, nothing charged) when the decode tokens overrun `*budget`
     * or their blocks do not fit the free blocks.
     */
    bool plan_group_step(std::size_t migrated_from, std::int64_t* budget);

    /** Free `blocks` for a group step by taking the decode walk's
     *  evictions and preemptions up front. @return false when k > block
     *  size or a decoder would be the victim; what it did by then is
     *  the walk's own first actions. */
    bool make_room(std::int64_t blocks);

    /** Stamp `r` and append it to the running set as `state`. */
    void admit(Request* r, RequestState state, double now);

    /** Prepare running `r` to leave other than by finishing: drop it from
     *  the prefill list or the decode group. @return the plan tokens it
     *  gives back as a member planned this step (see `drop_member`). */
    std::int64_t unlink_running(Request* r);

    /**
     * Free KV by recompute-preempting the most recently admitted running
     * request other than `keep`, retracting the victim's chunk from the
     * plan if it had already been scheduled this step.
     *
     * @return the retracted token count (0 when the victim had nothing in
     * the plan) so the caller can refund its step budget, or -1 when no
     * victim could be preempted.
     */
    std::int64_t preempt_one(const Request* keep);

    /**
     * Schedule one prefill chunk for `r` within `budget`, splitting the
     * chunk between the shared prefix entry (when `r` is its filler) and
     * the request's private blocks.
     *
     * @return tokens scheduled (0 when blocked).
     */
    std::int64_t schedule_prefill(Request* r, std::int64_t budget);

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
    /** decode_tokens_per_step in whole KV blocks and the tokens left over. */
    std::int64_t k_blocks_ = 0;
    std::int64_t k_rem_ = 0;
    std::deque<Request*> waiting_;   // descending class, FCFS within
    std::vector<Request*> running_;  // admission order
    /** Waiting requests already prefilled (migrated-in decode work). */
    std::size_t waiting_prefilled_ = 0;
    /** Running prefills by descending class, admission order within. */
    std::vector<Request*> prefilling_;
    /** Admissions so far: the next admission stamp. */
    std::int64_t admissions_ = 0;
    std::int64_t preemptions_ = 0;
    /** Running sum of every waiting and running request's owed tokens. */
    std::int64_t outstanding_ = 0;
    /** Lower bound on every live deadline (+inf: none live); `enqueue`
     *  lowers it and each `take_if` sweep makes it exact. */
    double deadline_floor_ = std::numeric_limits<double>::infinity();
    obs::TraceSink* trace_ = nullptr;
    obs::EngineId trace_id_ = 0;
    double sched_now_ = 0.0;  ///< time of the in-progress schedule() call
    BatchPlan plan_;           ///< the last `schedule`'s plan, reused
    DecodeGroup group_;
    Path path_ = Path::kGroup;
    /** This step's finishing members (then migrated-in decoders), and
     *  the requests a step finished (by admission stamp); reused
     *  buffers. */
    std::vector<Request*> explicit_, leaving_;
    /** `consistent()`'s recount buffer, reused so a Debug step allocates
     *  no more than a Release one. */
    mutable std::vector<std::int64_t> check_scratch_;
};

} // namespace shiftpar::engine
