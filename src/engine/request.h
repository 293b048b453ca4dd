/**
 * @file
 * Inference request lifecycle.
 *
 * A request arrives with a prompt and a target output length, is prefilled
 * (possibly in chunks), then decodes one token per engine step until done.
 * Timestamps recorded along the way produce the paper's three metrics:
 * TTFT (arrival -> first output token), TPOT (inter-token time thereafter),
 * and completion time (arrival -> last token).
 */

#pragma once

#include <cstdint>

#include "kvcache/block_table.h"

namespace shiftpar::engine {

/** Unique request identifier (assigned by the submitter). */
using RequestId = std::int64_t;

/** What a client submits: arrival time and token counts. */
struct RequestSpec
{
    /** Arrival (submission) time, seconds from experiment start. */
    double arrival = 0.0;

    /** Prompt length, tokens. */
    std::int64_t prompt_tokens = 0;

    /** Output length to generate, tokens (>= 1). */
    std::int64_t output_tokens = 1;

    /**
     * Shared-prefix identity for automatic prefix caching (-1 = none).
     * Requests with equal `prefix_id` share their first `prefix_tokens`
     * prompt tokens (an agent's system prompt + accumulated context); the
     * engine serves those from cache when resident.
     */
    std::int64_t prefix_id = -1;

    /** Length of the shared prefix, tokens (<= prompt_tokens). */
    std::int64_t prefix_tokens = 0;

    /**
     * Scheduling priority (Section 2.1's QoS classes): higher values are
     * admitted first; ties keep FCFS order. Latency-sensitive interactive
     * requests can outrank throughput-oriented batch requests sharing the
     * deployment.
     */
    int priority = 0;

    /**
     * Completion deadline, absolute seconds on the experiment clock
     * (0 = none). A request that has not finished by its deadline is
     * evicted by the scheduler (KV released, state `kExpired`) instead of
     * burning further tokens on an answer the client stopped waiting for.
     */
    double deadline = 0.0;
};

/** Lifecycle state of a request inside an engine. */
enum class RequestState
{
    kWaiting,    ///< queued, no KV allocated (or preempted & reset)
    kPrefill,    ///< admitted; prompt partially processed
    kDecode,     ///< prefill complete; generating output tokens
    kFinished,   ///< all output tokens produced
    kCancelled,  ///< aborted by the client before completion
    kMigrated,   ///< moved to another replica before making progress
    kLost,       ///< dropped by an engine failure (KV state destroyed)
    kExpired,    ///< evicted past its completion deadline
};

/** A live request tracked by an engine. */
struct Request
{
    RequestId id = 0;
    RequestSpec spec;

    RequestState state = RequestState::kWaiting;

    /** Prompt tokens prefilled so far. */
    std::int64_t prefilled = 0;

    /**
     * Tokens that must be prefilled before decoding (the prompt, plus any
     * already-produced output that recompute preemption re-processes).
     * Initialized by the engine at submission.
     */
    std::int64_t prefill_target = 0;

    /** Output tokens produced so far. */
    std::int64_t decoded = 0;

    /** Admission stamp: the scheduler's admission count when the request
     *  last entered the running set (the running set's order). */
    std::int64_t admitted = 0;

    /**
     * The scheduler's decode-group epoch when `decoded` and `kv` were
     * last written, or -1 while the request is not a group member. A
     * member's `decoded` and `kv` lag k tokens per group step since then.
     */
    std::int64_t synced_epoch = -1;

    /** Times the request was preempted (recompute preemption). */
    int preemptions = 0;

    /** True while this request pins its shared prefix-cache entry. */
    bool prefix_attached = false;

    /**
     * True when this request reached the engine through cross-replica
     * migration. Migrated requests are never stolen again — one hop per
     * request keeps the rebalancer from bouncing work between queues.
     */
    bool migrated_in = false;

    /**
     * True once this request's prefix hit has been counted in the cache's
     * hit statistics. Unlike the other prefix fields this survives
     * recompute preemption, so a preempted-then-resumed request does not
     * double-count its hit.
     */
    bool prefix_hit_counted = false;

    /** True while this request is filling its prefix-cache entry. */
    bool filling_prefix = false;

    /**
     * The request's index in the decode group's finish heap, or -1 while
     * it is not a group member; removing a member costs O(log D) through
     * it. It sits in padding before `prefix_filled` (4 bytes of it stay
     * free): 8 more bytes per `Request` cost about 2 MB of peak RSS on the
     * overload_dp8 replay.
     */
    std::int32_t heap_slot = -1;

    /** Tokens this request has appended into the prefix entry so far. */
    std::int64_t prefix_filled = 0;

    /**
     * The request's private KV blocks (context beyond `prefix_filled`),
     * grown and released through the engine's `kvcache::CacheManager`.
     * Empty while waiting.
     */
    kvcache::BlockTable kv;

    /** Time the first chunk was scheduled (-1 until then). */
    double first_scheduled = -1.0;

    /** Time the first output token was produced (-1 until then). */
    double first_token = -1.0;

    /** Time the last output token was produced (-1 until then). */
    double finished = -1.0;

    /** @return true once all required context has been prefilled. */
    bool prefill_done() const { return prefilled >= prefill_target; }

    /** @return prefill tokens still to process. */
    std::int64_t prefill_remaining() const
    {
        return prefill_target - prefilled;
    }

    /** @return true once all output tokens have been produced. */
    bool done() const { return decoded >= spec.output_tokens; }

    /** @return time to first token (valid once first_token is set). */
    double ttft() const { return first_token - spec.arrival; }

    /**
     * @return mean time per output token after the first (valid once
     * finished); 0 for single-token outputs.
     */
    double tpot() const
    {
        return spec.output_tokens > 1
                   ? (finished - first_token) /
                         static_cast<double>(spec.output_tokens - 1)
                   : 0.0;
    }

    /** @return end-to-end completion time (valid once finished). */
    double completion() const { return finished - spec.arrival; }

    /** Reset progress for recompute preemption (KV was released). */
    void reset_for_recompute();
};

} // namespace shiftpar::engine
