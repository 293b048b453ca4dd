/** @file Tests for the paged KV cache: allocator, tables, layouts, manager. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "kvcache/cache_manager.h"
#include "model/presets.h"
#include "util/rng.h"

namespace shiftpar::kvcache {

/** Reaches into a CacheManager's pool and idle heap: reads them for a
 *  reference scan and breaks them on purpose. */
struct CacheManagerTestPeer
{
    static BlockAllocator& pool(CacheManager& c) { return c.allocator_; }

    /** A prefix entry as the reference scan sees it. */
    struct Entry
    {
        std::uint64_t last_use;
        PrefixKey key;
        int refs;
        std::int64_t blocks;
    };

    static std::vector<Entry>
    entries(const CacheManager& c)
    {
        std::vector<Entry> out;
        for (const auto& [key, e] : c.prefixes_)
            out.push_back({e.last_use, key, e.refs, e.blocks.num_blocks()});
        return out;
    }

    static std::size_t idle_records(const CacheManager& c)
    {
        return c.idle_.size();
    }

    static void forget_idle(CacheManager& c) { c.idle_.clear(); }
};

namespace {

TEST(BlockAllocator, AllocateUntilExhausted)
{
    BlockAllocator a(4, 16);
    EXPECT_EQ(a.num_free(), 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(a.allocate(1));
    EXPECT_FALSE(a.allocate(1));
    EXPECT_EQ(a.num_used(), 4);
    EXPECT_DOUBLE_EQ(a.utilization(), 1.0);
}

TEST(BlockAllocator, FreeReturnsBlocks)
{
    BlockAllocator a(4, 16);
    ASSERT_TRUE(a.allocate(4));
    a.free(4);
    EXPECT_EQ(a.num_free(), 4);
    // The whole pool refills in one call; one block more is refused.
    EXPECT_TRUE(a.allocate(4));
    EXPECT_FALSE(a.allocate(1));
    EXPECT_EQ(a.num_used(), 4);
}

TEST(BlockAllocator, AllocateIsAllOrNothing)
{
    BlockAllocator a(3, 16);
    EXPECT_TRUE(a.allocate(2));
    EXPECT_FALSE(a.allocate(2));
    EXPECT_EQ(a.num_used(), 2);
}

TEST(BlockAllocator, OverFreePanics)
{
    BlockAllocator a(4, 16);
    ASSERT_TRUE(a.allocate(2));
    a.free(1);
    EXPECT_DEATH(a.free(2), "KV block over-free: returning 2 blocks with "
                            "only 1 in use");
}

TEST(BlockAllocator, BlocksForTokens)
{
    BlockAllocator a(10, 16);
    EXPECT_EQ(a.blocks_for_tokens(0), 0);
    EXPECT_EQ(a.blocks_for_tokens(1), 1);
    EXPECT_EQ(a.blocks_for_tokens(16), 1);
    EXPECT_EQ(a.blocks_for_tokens(17), 2);
}

TEST(BlockAllocator, CanAllocate)
{
    BlockAllocator a(3, 16);
    EXPECT_TRUE(a.can_allocate(3));
    EXPECT_FALSE(a.can_allocate(4));
}

TEST(BlockTable, GrowthAllocatesOnBlockBoundaries)
{
    BlockAllocator a(10, 16);
    BlockTable t;
    EXPECT_TRUE(t.append_tokens(10, a));
    EXPECT_EQ(t.num_blocks(), 1);
    EXPECT_TRUE(t.append_tokens(6, a));  // exactly fills the block
    EXPECT_EQ(t.num_blocks(), 1);
    EXPECT_TRUE(t.append_tokens(1, a));
    EXPECT_EQ(t.num_blocks(), 2);
    EXPECT_EQ(t.num_tokens(), 17);
}

TEST(BlockTable, AllOrNothingOnFailure)
{
    BlockAllocator a(2, 16);
    BlockTable t;
    // 40 tokens need 3 blocks but only 2 exist: nothing allocated.
    EXPECT_FALSE(t.append_tokens(40, a));
    EXPECT_EQ(t.num_tokens(), 0);
    EXPECT_EQ(a.num_free(), 2);
}

TEST(BlockTable, ReleaseReturnsEverything)
{
    BlockAllocator a(4, 16);
    BlockTable t;
    ASSERT_TRUE(t.append_tokens(50, a));
    t.release(a);
    EXPECT_EQ(t.num_tokens(), 0);
    EXPECT_EQ(a.num_free(), 4);
}

TEST(KvLayoutTest, DpAndTpAreNotInvariant)
{
    // Section 1: TP and DP cannot switch — incompatible cache layouts.
    const auto m = model::llama_70b();
    const KvLayout dp = KvLayout::dp(m, 8);
    const KvLayout tp = KvLayout::naive_tp(m, 8);
    EXPECT_FALSE(dp.invariant_with(tp));
    EXPECT_GT(switch_cost_bytes(m, dp, tp, 10000), 0.0);
}

TEST(KvLayoutTest, PlacementSwitchCostUsesSharedKvHeadUnit)
{
    // Cross-check of the deduplicated dtype sizing: a full reshard moves
    // every head's cache slice, priced in the same kv_head_bytes_per_token
    // unit that capacity accounting uses.
    const auto m = model::llama_70b();
    const std::int64_t cached = 10000;
    const double cost = switch_cost_bytes(m, KvLayout::dp(m, 8),
                                          KvLayout::naive_tp(m, 8), cached);
    EXPECT_DOUBLE_EQ(
        cost, static_cast<double>(m.kv_heads) *
                  static_cast<double>(cached) *
                  model::kv_head_bytes_per_token(m.head_dim, m.kv_dtype));
    EXPECT_DOUBLE_EQ(cost, static_cast<double>(cached) *
                               m.kv_bytes_per_token_layer());
}

TEST(KvLayoutTest, InvariantSwitchIsFree)
{
    const auto m = model::llama_70b();
    const KvLayout base = KvLayout::base(m, {4, 2});
    const KvLayout shift = KvLayout::shift(m, {4, 2});
    EXPECT_TRUE(base.invariant_with(shift));
    EXPECT_DOUBLE_EQ(switch_cost_bytes(m, base, shift, 1 << 20), 0.0);
}

TEST(KvLayoutTest, NaiveTpSwitchCostCountsMisplacedHeads)
{
    const auto m = model::llama_70b();
    const KvLayout base = KvLayout::base(m, {4, 2});
    const KvLayout naive = KvLayout::naive_tp(m, 8);
    const double cost = switch_cost_bytes(m, base, naive, 1000);
    EXPECT_GT(cost, 0.0);
    // Upper bound: all 8 KV heads' slices move.
    const double all = 8.0 * 1000.0 * 2.0 * m.head_dim *
                       model::dtype_bytes(m.kv_dtype);
    EXPECT_LE(cost, all);
}

TEST(KvLayoutTest, DpToDpIsFree)
{
    const auto m = model::llama_70b();
    EXPECT_DOUBLE_EQ(
        switch_cost_bytes(m, KvLayout::dp(m, 8), KvLayout::dp(m, 8), 5000),
        0.0);
}

TEST(KvLayoutTest, DescribeShowsPlacementAndHeads)
{
    const auto m = model::llama_70b();
    const std::string s = describe(KvLayout::base(m, {1, 8}));
    EXPECT_NE(s.find("head-sharded"), std::string::npos);
    EXPECT_NE(s.find("r0:0"), std::string::npos);
}

TEST(CacheManager, AdmitAndReleaseAccounting)
{
    const auto m = model::llama_70b();
    CacheManager c(1000, KvLayout::base(m, {1, 8}), 16);
    EXPECT_EQ(c.token_capacity(), 1000);
    BlockTable t;
    EXPECT_TRUE(c.try_append(t, 100));
    EXPECT_EQ(t.num_tokens(), 100);
    EXPECT_EQ(t.num_blocks(), 7);
    EXPECT_EQ(c.used_blocks(), 7);
    EXPECT_TRUE(c.accounting_consistent(t.num_blocks()));
    c.release(t);
    EXPECT_EQ(t.num_tokens(), 0);
    EXPECT_EQ(t.num_blocks(), 0);
    EXPECT_EQ(c.used_blocks(), 0);
    EXPECT_EQ(c.free_tokens(), (1000 / 16) * 16);
}

TEST(CacheManager, RejectsWhenFull)
{
    const auto m = model::llama_70b();
    CacheManager c(64, KvLayout::base(m, {1, 8}), 16);
    BlockTable a, b;
    EXPECT_TRUE(c.try_append(a, 64));
    EXPECT_FALSE(c.try_append(b, 1));
    EXPECT_EQ(b.num_blocks(), 0);  // failed admission leaves no residue
    EXPECT_EQ(c.used_blocks(), 4);
    c.release(a);
    EXPECT_TRUE(c.try_append(b, 1));
}

TEST(CacheManager, FailedGrowthKeepsExistingTokens)
{
    const auto m = model::llama_70b();
    CacheManager c(32, KvLayout::base(m, {1, 8}), 16);
    BlockTable t;
    EXPECT_TRUE(c.try_append(t, 30));
    EXPECT_FALSE(c.try_append(t, 100));
    EXPECT_EQ(t.num_tokens(), 30);
}

TEST(CacheManager, FailedAppendLeavesTableAndPoolUnchanged)
{
    const auto m = model::llama_70b();
    CacheManager c(160, KvLayout::base(m, {1, 8}), 16);
    BlockTable other, t;
    ASSERT_TRUE(c.try_append(other, 100));  // 7 of 10 blocks
    ASSERT_TRUE(c.try_append(t, 20));       // 2 blocks, 12 tokens spare
    EXPECT_FALSE(c.try_append(t, 40));      // needs 2 more, 1 is free
    EXPECT_EQ(t.num_tokens(), 20);
    EXPECT_EQ(t.num_blocks(), 2);
    EXPECT_EQ(other.num_blocks(), 7);
    EXPECT_EQ(c.used_blocks(), 9);
    EXPECT_EQ(c.free_tokens(), 16);
    EXPECT_TRUE(c.accounting_consistent(t.num_blocks() +
                                        other.num_blocks()));
}

TEST(CacheManager, AppendEvictsIdlePrefixButNeverAPinnedOne)
{
    const auto m = model::llama_70b();
    CacheManager c(160, KvLayout::base(m, {1, 8}), 16);
    c.attach_prefix(1, 64);
    ASSERT_TRUE(c.try_append_prefix(1, 64));  // 4 blocks, stays pinned
    c.attach_prefix(2, 64);
    ASSERT_TRUE(c.try_append_prefix(2, 64));  // 4 blocks, goes idle
    c.detach_prefix(2);

    // 2 blocks are free; 4 more need the idle entry's blocks.
    BlockTable t;
    EXPECT_TRUE(c.try_append(t, 96));
    EXPECT_EQ(t.num_blocks(), 6);
    EXPECT_EQ(c.prefix_cached_tokens(2), 0);  // evicted
    EXPECT_EQ(c.prefix_cached_tokens(1), 64);
    EXPECT_TRUE(c.accounting_consistent(t.num_blocks()));

    // Only the pinned entry is left: the next append fails, unchanged.
    EXPECT_FALSE(c.try_append(t, 16));
    EXPECT_EQ(t.num_blocks(), 6);
    EXPECT_EQ(c.prefix_cached_tokens(1), 64);
    EXPECT_EQ(c.prefix_entry_count(), 1u);
    EXPECT_EQ(c.used_blocks(), 10);
}

TEST(CacheManager, ReleaseReturnsExactlyTheTablesBlocks)
{
    const auto m = model::llama_70b();
    CacheManager c(1600, KvLayout::base(m, {1, 8}), 16);
    BlockTable a, b;
    ASSERT_TRUE(c.try_append(a, 33));  // 3 blocks
    ASSERT_TRUE(c.try_append(b, 40));  // 3 blocks
    ASSERT_TRUE(c.try_append(a, 16));  // 49 tokens: 4 blocks
    EXPECT_EQ(c.used_blocks(), 7);
    c.release(a);
    EXPECT_EQ(c.used_blocks(), 3);
    EXPECT_EQ(a.num_blocks(), 0);
    EXPECT_EQ(b.num_blocks(), 3);
    EXPECT_TRUE(c.accounting_consistent(b.num_blocks()));
    c.release(a);  // an empty table returns nothing
    EXPECT_EQ(c.used_blocks(), 3);
}

TEST(CacheManager, IdKeyedWrappersKeepTheirOwnTables)
{
    // Standalone callers without a request object address tables by id.
    const auto m = model::llama_70b();
    CacheManager c(64, KvLayout::base(m, {1, 8}), 16);
    EXPECT_TRUE(c.try_append(1, 30));  // 2 blocks
    EXPECT_FALSE(c.try_append(2, 40));
    EXPECT_EQ(c.used_blocks(), 2);
    EXPECT_TRUE(c.accounting_consistent(0));
    c.release(2);  // unknown id: no-op
    c.release(1);
    EXPECT_EQ(c.used_blocks(), 0);
    EXPECT_TRUE(c.try_append(2, 64));
    EXPECT_TRUE(c.accounting_consistent(0));
}

TEST(CacheManager, InvarianceAssertPassesAndFails)
{
    const auto m = model::llama_70b();
    CacheManager c(100, KvLayout::base(m, {4, 2}), 16);
    c.assert_invariant_with(KvLayout::shift(m, {4, 2}));
    EXPECT_DEATH(c.assert_invariant_with(KvLayout::naive_tp(m, 8)),
                 "not invariant");
}

TEST(CacheManager, AccountingCheckCatchesPoolMismatch)
{
    const auto m = model::llama_70b();
    CacheManager c(1600, KvLayout::base(m, {1, 8}), 16);
    EXPECT_TRUE(c.accounting_consistent(0));
    BlockTable t;
    ASSERT_TRUE(c.try_append(t, 40));  // 3 blocks
    c.attach_prefix(9, 64);
    ASSERT_TRUE(c.try_append_prefix(9, 20));  // 2 blocks
    EXPECT_TRUE(c.accounting_consistent(3));
    // Blocks held outside that are off by one either way do not add up.
    EXPECT_FALSE(c.accounting_consistent(2));
    EXPECT_FALSE(c.accounting_consistent(4));

    // A block taken from the pool that no table records is a leak.
    BlockAllocator& pool = CacheManagerTestPeer::pool(c);
    ASSERT_TRUE(pool.allocate(1));
    EXPECT_FALSE(c.accounting_consistent(3));
    // Returning blocks that a table still records is a premature free.
    pool.free(2);
    EXPECT_FALSE(c.accounting_consistent(3));
    ASSERT_TRUE(pool.allocate(1));
    EXPECT_TRUE(c.accounting_consistent(3));

    c.release(t);
    c.detach_prefix(9);
    EXPECT_TRUE(c.evict_idle_prefixes(pool.num_blocks()));
    EXPECT_TRUE(c.accounting_consistent(0));
    EXPECT_EQ(pool.num_used(), 0);
}

TEST(CacheManager, UtilizationTracksUsage)
{
    const auto m = model::llama_70b();
    CacheManager c(160, KvLayout::base(m, {1, 8}), 16);
    EXPECT_DOUBLE_EQ(c.utilization(), 0.0);
    BlockTable t;
    c.try_append(t, 80);
    EXPECT_DOUBLE_EQ(c.utilization(), 0.5);
}

namespace {

/** Records eviction instants so tests can pin the victim sequence. */
struct EvictionLog : obs::TraceSink
{
    std::vector<std::string> instants;
    void
    on_instant(obs::EngineId, double, const std::string& name) override
    {
        instants.push_back(name);
    }
};

/** Fill three evictable prefix entries (keys 7, 3, 5 in LRU order) into
 *  `c`, optionally after `dummies` empty entries that perturb the
 *  unordered_map's bucket layout without being evictable. */
void
stage_prefixes(CacheManager& c, int dummies)
{
    for (int i = 0; i < dummies; ++i)
        c.attach_prefix(100 + i, 0);
    for (const PrefixKey key : {7, 3, 5}) {
        c.attach_prefix(key, 32);
        EXPECT_TRUE(c.try_append_prefix(key, 32));
        c.detach_prefix(key);
    }
}

} // namespace

// Regression guard for the shiftlint `unordered-emit` finding in
// evict_idle_prefixes: victim selection iterates an unordered_map, so it
// must be a total order over (last_use, key) — never hash-bucket order,
// which varies with the map's insertion history. The two managers here
// hold identical evictable entries in different bucket layouts and must
// report byte-identical eviction traces.
TEST(CacheManager, EvictionOrderIndependentOfHashLayout)
{
    const auto m = model::llama_70b();
    const double clock = 0.0;

    std::vector<std::vector<std::string>> traces;
    for (const int dummies : {0, 29}) {
        CacheManager c(160, KvLayout::base(m, {1, 8}), 16);
        EvictionLog log;
        c.set_trace(&log, 0, &clock);
        stage_prefixes(c, dummies);
        // 96 of 160 tokens are held by idle prefixes; admitting 160
        // evicts all three, least recently used first.
        BlockTable t;
        EXPECT_TRUE(c.try_append(t, 160));
        traces.push_back(log.instants);
    }

    const std::vector<std::string> expected = {
        "prefix_evict #7", "prefix_evict #3", "prefix_evict #5"};
    EXPECT_EQ(traces[0], expected);
    EXPECT_EQ(traces[1], expected);
}

/** The victims a scan over every entry picks, least (last_use, key)
 *  among the unpinned ones holding blocks first, until `target` blocks
 *  are free: the eviction order before the idle heap. */
std::vector<std::string>
reference_victims(const CacheManager& c, std::int64_t target)
{
    auto entries = CacheManagerTestPeer::entries(c);
    std::int64_t free = c.free_blocks();
    std::vector<std::string> victims;
    while (free < target) {
        auto best = entries.end();
        for (auto it = entries.begin(); it != entries.end(); ++it) {
            if (it->refs != 0 || it->blocks == 0)
                continue;
            if (best == entries.end() ||
                std::pair(it->last_use, it->key) <
                    std::pair(best->last_use, best->key))
                best = it;
        }
        if (best == entries.end())
            break;
        free += best->blocks;
        victims.push_back("prefix_evict #" + std::to_string(best->key));
        entries.erase(best);
    }
    return victims;
}

TEST(CacheManager, IdleHeapEvictsWhatAFullScanWould)
{
    // Random attaches, detaches, prefix fills, private appends, releases
    // and explicit evictions over a small pool: every eviction, within an
    // append or not, must take the victims a full scan picks, and the
    // oracle (one live record per evictable entry) must hold throughout.
    const auto m = model::llama_70b();
    const double clock = 0.0;
    CacheManager c(64 * 16, KvLayout::base(m, {1, 8}), 16);
    EvictionLog log;
    c.set_trace(&log, 0, &clock);
    Rng rng(2026);
    std::vector<PrefixKey> pins;        // one element per attach
    std::vector<BlockTable> tables(4);  // private tables
    std::int64_t evictions = 0, failed_appends = 0;
    const auto held = [&] {
        std::int64_t blocks = 0;
        for (const BlockTable& t : tables)
            blocks += t.num_blocks();
        return blocks;
    };
    // The victims an append of `tokens` to a table needing `more` new
    // blocks would take.
    const auto append_victims = [&](std::int64_t more, std::int64_t tokens) {
        return more <= c.free_blocks()
                   ? std::vector<std::string>{}
                   : reference_victims(c, c.blocks_for_tokens(tokens) + 1);
    };
    for (int op = 0; op < 20000; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        log.instants.clear();
        std::vector<std::string> expected;
        // Detaches outnumber attaches so entries keep going idle.
        const std::int64_t kind = rng.uniform_int(0, 6);
        if (kind == 0 || pins.empty()) {
            const PrefixKey key = rng.uniform_int(0, 11);
            c.attach_prefix(key, rng.uniform_int(16, 160));
            pins.push_back(key);
        } else if (kind <= 2) {
            const auto i = static_cast<std::size_t>(
                rng.uniform_int(0, std::ssize(pins) - 1));
            c.detach_prefix(pins[i]);
            pins[i] = pins.back();
            pins.pop_back();
        } else if (kind == 3) {
            const PrefixKey key = pins[static_cast<std::size_t>(
                rng.uniform_int(0, std::ssize(pins) - 1))];
            const std::int64_t tokens = rng.uniform_int(1, 64);
            const std::int64_t cached = c.prefix_cached_tokens(key);
            expected = append_victims(c.blocks_for_tokens(cached + tokens) -
                                          c.blocks_for_tokens(cached),
                                      tokens);
            failed_appends += !c.try_append_prefix(key, tokens);
        } else if (kind == 4) {
            BlockTable& t = tables[static_cast<std::size_t>(
                rng.uniform_int(0, std::ssize(tables) - 1))];
            const std::int64_t tokens = rng.uniform_int(1, 200);
            expected = append_victims(
                c.blocks_for_tokens(t.num_tokens() + tokens) - t.num_blocks(),
                tokens);
            failed_appends += !c.try_append(t, tokens);
        } else if (kind == 5) {
            c.release(tables[static_cast<std::size_t>(
                rng.uniform_int(0, std::ssize(tables) - 1))]);
        } else {
            const std::int64_t target =
                c.free_blocks() + rng.uniform_int(1, 8);
            expected = reference_victims(c, target);
            c.evict_idle_prefixes(target);
        }
        ASSERT_EQ(log.instants, expected);
        evictions += std::ssize(expected);
        ASSERT_TRUE(c.accounting_consistent(held()));
        // Stale records never outnumber the entries by much.
        ASSERT_LE(CacheManagerTestPeer::idle_records(c),
                  2 * c.prefix_entry_count() + 16);
    }
    EXPECT_GT(evictions, 1000);
    EXPECT_GT(failed_appends, 100);
}

TEST(CacheManager, IdleHeapStaysBoundedWithoutEvictions)
{
    // Every attach stales its entry's record and every detach pushes a
    // new one; with no eviction to pop them, compaction bounds the heap.
    const auto m = model::llama_70b();
    CacheManager c(1 << 16, KvLayout::base(m, {1, 8}), 16);
    for (int i = 0; i < 5000; ++i) {
        const PrefixKey key = i % 3;
        c.attach_prefix(key, 64);
        if (i < 3) {
            ASSERT_TRUE(c.try_append_prefix(key, 64));
        }
        c.detach_prefix(key);
        ASSERT_LE(CacheManagerTestPeer::idle_records(c),
                  2 * c.prefix_entry_count() + 16);
    }
    EXPECT_TRUE(c.accounting_consistent(0));
}

TEST(CacheManager, OracleCatchesAnIdleEntryWithoutARecord)
{
    const auto m = model::llama_70b();
    CacheManager c(160, KvLayout::base(m, {1, 8}), 16);
    c.attach_prefix(4, 32);
    ASSERT_TRUE(c.try_append_prefix(4, 32));
    c.detach_prefix(4);
    ASSERT_TRUE(c.accounting_consistent(0));
    CacheManagerTestPeer::forget_idle(c);
    EXPECT_FALSE(c.accounting_consistent(0));
}

TEST(CacheManager, DropUnpinnedPrefixesLeavesOnlyThePinned)
{
    const auto m = model::llama_70b();
    const double clock = 0.0;
    CacheManager c(320, KvLayout::base(m, {1, 8}), 16);
    EvictionLog log;
    c.set_trace(&log, 0, &clock);
    for (const PrefixKey key : {5, 2}) {
        c.attach_prefix(key, 32);
        ASSERT_TRUE(c.try_append_prefix(key, 32));
        c.detach_prefix(key);
    }
    c.attach_prefix(8, 32);  // unpinned, never filled: no blocks
    c.detach_prefix(8);
    c.attach_prefix(1, 32);  // stays pinned
    ASSERT_TRUE(c.try_append_prefix(1, 32));
    c.drop_unpinned_prefixes();
    EXPECT_EQ(log.instants,
              (std::vector<std::string>{"prefix_evict #5",
                                        "prefix_evict #2"}));
    EXPECT_EQ(c.prefix_entry_count(), 1u);
    EXPECT_EQ(c.prefix_cached_tokens(1), 32);
    EXPECT_EQ(c.used_blocks(), 2);
    EXPECT_TRUE(c.accounting_consistent(0));
}

} // namespace
} // namespace shiftpar::kvcache
