#include "kvcache/cache_manager.h"

#include <algorithm>

#include "util/logging.h"

namespace shiftpar::kvcache {

CacheManager::CacheManager(std::int64_t token_capacity, KvLayout layout,
                           int block_size)
    : token_capacity_(token_capacity), layout_(std::move(layout)),
      allocator_(token_capacity / block_size, block_size)
{
    SP_ASSERT(token_capacity >= 0);
}

bool
CacheManager::try_append(RequestId id, std::int64_t tokens)
{
    auto [it, inserted] = tables_.try_emplace(id);
    bool ok = it->second.append_tokens(tokens, allocator_);
    if (!ok) {
        // Reclaim cold prefix entries before reporting pressure upward.
        evict_idle_prefixes(allocator_.blocks_for_tokens(tokens) + 1);
        ok = it->second.append_tokens(tokens, allocator_);
    }
    if (!ok && inserted)
        tables_.erase(it);
    return ok;
}

PrefixAttach
CacheManager::attach_prefix(PrefixKey key, std::int64_t target_tokens,
                            bool count_hit)
{
    SP_ASSERT(key >= 0 && target_tokens >= 0);
    auto [it, inserted] = prefixes_.try_emplace(key);
    PrefixEntry& entry = it->second;
    if (inserted)
        entry.target = target_tokens;
    entry.target = std::max(entry.target, target_tokens);
    ++entry.refs;
    entry.last_use = ++lru_clock_;

    PrefixAttach result;
    result.hit_tokens = std::min(entry.blocks.num_tokens(), target_tokens);
    // Become the filler if the entry is short of its target and nobody
    // else is filling it.
    if (!entry.filling && entry.blocks.num_tokens() < entry.target) {
        entry.filling = true;
        result.is_filler = true;
    }
    if (count_hit)
        prefix_hit_tokens_ += result.hit_tokens;
    return result;
}

bool
CacheManager::try_append_prefix(PrefixKey key, std::int64_t tokens)
{
    auto it = prefixes_.find(key);
    SP_ASSERT(it != prefixes_.end(), "append to unknown prefix entry");
    PrefixEntry& entry = it->second;
    bool ok = entry.blocks.append_tokens(tokens, allocator_);
    if (!ok) {
        evict_idle_prefixes(allocator_.blocks_for_tokens(tokens) + 1);
        ok = entry.blocks.append_tokens(tokens, allocator_);
    }
    if (ok) {
        entry.last_use = ++lru_clock_;
        if (entry.blocks.num_tokens() >= entry.target)
            entry.filling = false;
    }
    return ok;
}

void
CacheManager::detach_prefix(PrefixKey key)
{
    auto it = prefixes_.find(key);
    if (it == prefixes_.end())
        return;
    SP_ASSERT(it->second.refs > 0, "prefix refcount underflow");
    --it->second.refs;
    // A departing filler may leave the entry short; a later attach will
    // resume filling it.
    it->second.filling = false;
}

std::int64_t
CacheManager::prefix_cached_tokens(PrefixKey key) const
{
    auto it = prefixes_.find(key);
    return it == prefixes_.end() ? 0 : it->second.blocks.num_tokens();
}

bool
CacheManager::evict_idle_prefixes(std::int64_t blocks)
{
    while (allocator_.num_free() < blocks) {
        PrefixKey victim = -1;
        std::uint64_t oldest = ~std::uint64_t{0};
        // Victim selection is a total order over (last_use, key): two
        // entries idle since the same tick tie-break on the smaller key,
        // so the choice — and the eviction trace — never depends on hash
        // iteration order.
        // shiftlint-allow(unordered-emit): victim selection uses a total order over (last_use, key), independent of iteration order
        for (auto& [key, entry] : prefixes_) {
            if (entry.refs != 0 || entry.blocks.num_blocks() == 0)
                continue;
            if (entry.last_use < oldest ||
                (entry.last_use == oldest &&
                 (victim < 0 || key < victim))) {
                victim = key;
                oldest = entry.last_use;
            }
        }
        if (victim < 0)
            return false;
        auto it = prefixes_.find(victim);
        it->second.blocks.release(allocator_);
        prefixes_.erase(it);
        if (trace_ && trace_clock_) {
            trace_->on_instant(trace_id_, *trace_clock_,
                               "prefix_evict #" + std::to_string(victim));
        }
    }
    return true;
}

void
CacheManager::release(RequestId id)
{
    auto it = tables_.find(id);
    if (it == tables_.end())
        return;
    it->second.release(allocator_);
    tables_.erase(it);
}

std::int64_t
CacheManager::cached_tokens(RequestId id) const
{
    auto it = tables_.find(id);
    return it == tables_.end() ? 0 : it->second.num_tokens();
}

std::int64_t
CacheManager::free_tokens() const
{
    return allocator_.num_free() * allocator_.block_size();
}

bool
CacheManager::accounting_consistent() const
{
    std::int64_t held = 0;
    for (const auto& [id, table] : tables_)
        held += table.num_blocks();
    for (const auto& [key, entry] : prefixes_)
        held += entry.blocks.num_blocks();
    return held == allocator_.num_used();
}

void
CacheManager::assert_invariant_with(const KvLayout& other) const
{
    SP_ASSERT(layout_.invariant_with(other),
              "KV cache layouts are not invariant: ", describe(layout_),
              " vs ", describe(other));
}

} // namespace shiftpar::kvcache
