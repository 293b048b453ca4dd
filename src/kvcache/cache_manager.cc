#include "kvcache/cache_manager.h"

#include <algorithm>
#include <functional>
#include <limits>

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
CacheManager::try_append(BlockTable& table, std::int64_t tokens)
{
    if (table.append_tokens(tokens, allocator_))
        return true;
    // Reclaim cold prefix entries before reporting pressure upward.
    reclaim_for(tokens);
    return table.append_tokens(tokens, allocator_);
}

void
CacheManager::release(BlockTable& table)
{
    table.release(allocator_);
}

bool
CacheManager::try_append(RequestId id, std::int64_t tokens)
{
    auto [it, inserted] = tables_.try_emplace(id);
    const bool ok = try_append(it->second, tokens);
    if (!ok && inserted)
        tables_.erase(it);
    return ok;
}

void
CacheManager::release(RequestId id)
{
    auto it = tables_.find(id);
    if (it == tables_.end())
        return;
    release(it->second);
    tables_.erase(it);
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
    const bool ok = try_append(entry.blocks, tokens);
    if (ok) {
        entry.last_use = ++lru_clock_;
        if (entry.blocks.num_tokens() >= entry.target)
            entry.filling = false;
        note_idle(key, entry);
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
    note_idle(key, it->second);
}

void
CacheManager::note_idle(PrefixKey key, const PrefixEntry& entry)
{
    if (entry.refs != 0 || entry.blocks.num_blocks() == 0)
        return;
    // Each entry has at most one live record, so once the stale ones
    // outnumber the entries, drop them all: amortized O(1) per push.
    if (idle_.size() >= 2 * prefixes_.size() + 16) {
        std::erase_if(idle_, [this](const IdleRecord& r) { return !live(r); });
        std::make_heap(idle_.begin(), idle_.end(), std::greater<>{});
    }
    idle_.emplace_back(entry.last_use, key);
    std::push_heap(idle_.begin(), idle_.end(), std::greater<>{});
}

bool
CacheManager::live(const IdleRecord& rec) const
{
    const auto it = prefixes_.find(rec.second);
    return it != prefixes_.end() && it->second.refs == 0 &&
           it->second.blocks.num_blocks() > 0 &&
           it->second.last_use == rec.first;
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
    // The victim is the least (last_use, key) among idle entries holding
    // blocks: the first live record off the heap. Two entries never share
    // a stamp, and the key breaks ties anyway, so the choice (and the
    // eviction trace) never depends on hash iteration order.
    while (allocator_.num_free() < blocks) {
        if (idle_.empty())
            return false;
        std::pop_heap(idle_.begin(), idle_.end(), std::greater<>{});
        const IdleRecord rec = idle_.back();
        idle_.pop_back();
        if (!live(rec))
            continue;
        auto it = prefixes_.find(rec.second);
        it->second.blocks.release(allocator_);
        prefixes_.erase(it);
        if (trace_ && trace_clock_) {
            trace_->on_instant(trace_id_, *trace_clock_,
                               "prefix_evict #" + std::to_string(rec.second));
        }
    }
    return true;
}

void
CacheManager::drop_unpinned_prefixes()
{
    evict_idle_prefixes(std::numeric_limits<std::int64_t>::max());
    std::erase_if(prefixes_,
                  [](const auto& kv) { return kv.second.refs == 0; });
}

std::int64_t
CacheManager::free_tokens() const
{
    return allocator_.num_free() * allocator_.block_size();
}

bool
CacheManager::accounting_consistent(std::int64_t held_outside) const
{
    std::int64_t held = held_outside;
    for (const auto& [id, table] : tables_)
        held += table.num_blocks();
    // Records are never duplicated (each push carries a fresh stamp), so
    // as many live records as evictable entries means one for each.
    std::size_t evictable = 0;
    for (const auto& [key, entry] : prefixes_) {
        held += entry.blocks.num_blocks();
        evictable += entry.refs == 0 && entry.blocks.num_blocks() > 0;
    }
    const auto records = std::count_if(
        idle_.begin(), idle_.end(),
        [this](const IdleRecord& r) { return live(r); });
    return held == allocator_.num_used() &&
           static_cast<std::size_t>(records) == evictable &&
           std::is_heap(idle_.begin(), idle_.end(), std::greater<>{});
}

void
CacheManager::assert_invariant_with(const KvLayout& other) const
{
    SP_ASSERT(layout_.invariant_with(other),
              "KV cache layouts are not invariant: ", describe(layout_),
              " vs ", describe(other));
}

} // namespace shiftpar::kvcache
