/**
 * @file
 * Engine-level KV cache: block pool + per-request tables + layout.
 *
 * The manager owns the block pool sized from a `MemoryPlan`, maintains one
 * `BlockTable` (token and block counts) per live request and per shared
 * prefix entry, and carries the distributed `KvLayout` so the shift engine
 * can assert invariance before reusing the cache under a different
 * execution configuration. Accounting is by count: the blocks held by all
 * tables must always equal the pool's used count (`accounting_consistent`).
 */

#pragma once

#include <cstdint>
#include <unordered_map>

#include "kvcache/block_allocator.h"
#include "kvcache/block_table.h"
#include "kvcache/layout.h"
#include "obs/trace.h"
#include "parallel/memory.h"

namespace shiftpar::kvcache {

/** Request identifier used by the engine. */
using RequestId = std::int64_t;

/** Shared-prefix identifier (workload-assigned). */
using PrefixKey = std::int64_t;

/** Result of attaching a request to a prefix entry. */
struct PrefixAttach
{
    /** Prefix tokens already cached and reusable right now. */
    std::int64_t hit_tokens = 0;

    /** True when this request should fill the (new or partial) entry. */
    bool is_filler = false;
};

/** Paged KV cache for one engine (one rank group). */
class CacheManager
{
  public:
    /**
     * @param token_capacity Total tokens the cache can hold (from
     *        `parallel::MemoryPlan::kv_token_capacity`).
     * @param layout Distributed layout the cache is written in.
     * @param block_size Tokens per block.
     */
    CacheManager(std::int64_t token_capacity, KvLayout layout,
                 int block_size = 16);

    /**
     * Attach an observability sink (borrowed; null disables tracing).
     * `clock` points at the owning engine's simulated-time variable so
     * eviction events carry timestamps (the cache has no clock of its own).
     */
    void set_trace(obs::TraceSink* sink, obs::EngineId id,
                   const double* clock)
    {
        trace_ = sink;
        trace_id_ = id;
        trace_clock_ = clock;
    }

    /**
     * Reserve cache space for `tokens` new tokens of request `id`
     * (admission for a prefill chunk, or +1 for a decode step). Under
     * pressure, idle prefix-cache entries are evicted LRU-first before
     * failing.
     *
     * @return true on success; false (no state change) when the pool is
     * exhausted — the caller should defer or preempt.
     */
    bool try_append(RequestId id, std::int64_t tokens);

    /** Release all blocks of request `id` (finish or preemption). */
    void release(RequestId id);

    /**
     * Automatic prefix caching (vLLM APC equivalent). Attach request to
     * the shared prefix `key` targeting `target_tokens`: creates the entry
     * on first use (the attaching request becomes the *filler*), pins it
     * (refcount), and reports how many prefix tokens are already cached.
     *
     * @param count_hit Whether the served tokens count towards
     *        `prefix_hit_tokens()`. Pass false on re-attach (a preempted
     *        request resuming) so one request's hit is counted once.
     */
    PrefixAttach attach_prefix(PrefixKey key, std::int64_t target_tokens,
                               bool count_hit = true);

    /**
     * Append `tokens` of freshly prefilled prefix into entry `key` (called
     * by the filler as its prefill progresses). All-or-nothing like
     * `try_append`.
     */
    bool try_append_prefix(PrefixKey key, std::int64_t tokens);

    /** Unpin entry `key` (request finished or was preempted). */
    void detach_prefix(PrefixKey key);

    /** @return tokens currently cached in entry `key` (0 if absent). */
    std::int64_t prefix_cached_tokens(PrefixKey key) const;

    /** @return number of live prefix entries. */
    std::size_t prefix_entry_count() const { return prefixes_.size(); }

    /** @return total prompt tokens served from the prefix cache so far. */
    std::int64_t prefix_hit_tokens() const { return prefix_hit_tokens_; }

    /**
     * Evict unpinned prefix entries (LRU-first) until at least `blocks`
     * blocks are free or nothing evictable remains.
     *
     * @return true when the target is met.
     */
    bool evict_idle_prefixes(std::int64_t blocks);

    /** @return tokens cached for request `id` (0 if unknown). */
    std::int64_t cached_tokens(RequestId id) const;

    /** @return true if `id` currently owns cache blocks. */
    bool contains(RequestId id) const
    {
        return tables_.find(id) != tables_.end();
    }

    /** @return total token capacity. */
    std::int64_t token_capacity() const { return token_capacity_; }

    /** @return tokens worth of blocks still free. */
    std::int64_t free_tokens() const;

    /** @return pool utilization in [0, 1]. */
    double utilization() const { return allocator_.utilization(); }

    /** @return number of live requests holding blocks. */
    std::size_t num_requests() const { return tables_.size(); }

    /** @return the distributed layout of this cache. */
    const KvLayout& layout() const { return layout_; }

    /**
     * KV accounting invariant: the blocks held by every request table and
     * prefix entry sum to the pool's used count. O(live requests + prefix
     * entries); `Engine::step` checks it in Debug builds.
     *
     * @return true when the invariant holds.
     */
    bool accounting_consistent() const;

    /**
     * Assert that `other` can share this cache without data movement
     * (panics otherwise) — called by the shift engine on every mode switch.
     */
    void assert_invariant_with(const KvLayout& other) const;

  private:
    friend struct CacheManagerTestPeer;  // corrupts accounting on purpose

    /** One shared-prefix entry: blocks holding `tokens` cached tokens. */
    struct PrefixEntry
    {
        BlockTable blocks;
        std::int64_t target = 0;  ///< tokens the prefix should reach
        int refs = 0;             ///< live requests pinning the entry
        bool filling = false;     ///< a filler request is active
        std::uint64_t last_use = 0;
    };

    std::int64_t token_capacity_;
    KvLayout layout_;
    BlockAllocator allocator_;
    std::unordered_map<RequestId, BlockTable> tables_;
    std::unordered_map<PrefixKey, PrefixEntry> prefixes_;
    std::int64_t prefix_hit_tokens_ = 0;
    std::uint64_t lru_clock_ = 0;
    obs::TraceSink* trace_ = nullptr;
    obs::EngineId trace_id_ = 0;
    const double* trace_clock_ = nullptr;
};

} // namespace shiftpar::kvcache
