/**
 * @file
 * Paged KV-cache block pool (vLLM-style PagedAttention allocator).
 *
 * The KV cache is carved into fixed-size blocks of `block_size` tokens;
 * requests hold block counts via `BlockTable`. The simulator needs block
 * *counts* for admission, preemption and eviction, never block identities,
 * so the pool is a used-block counter: allocate and free take a count and
 * cost O(1) regardless of how many blocks move. That is enough to
 * reproduce cache-pressure effects (admission control, preemption, the
 * Mooncake overflow of Section 4.2.2) without modeling block contents.
 */

#pragma once

#include <cstdint>

#include "util/logging.h"
#include "util/units.h"

namespace shiftpar::kvcache {

/** Fixed-size block pool that counts the blocks in use. */
class BlockAllocator
{
  public:
    /**
     * @param num_blocks Total blocks in the pool.
     * @param block_size Tokens per block (vLLM default is 16).
     */
    BlockAllocator(std::int64_t num_blocks, int block_size)
        : num_blocks_(num_blocks), block_size_(block_size)
    {
        SP_ASSERT(num_blocks >= 0 && block_size >= 1);
    }

    /**
     * Take `n` blocks, all or nothing.
     *
     * @return false (no change) when fewer than `n` blocks are free.
     */
    bool allocate(std::int64_t n)
    {
        SP_ASSERT(n >= 0);
        if (!can_allocate(n))
            return false;
        used_ += n;
        return true;
    }

    /** Return `n` blocks to the pool; over-freeing is a panic. */
    void free(std::int64_t n)
    {
        SP_ASSERT(n >= 0 && n <= used_, "KV block over-free: returning ", n,
                  " blocks with only ", used_, " in use");
        used_ -= n;
    }

    /** @return true when at least `n` blocks are free. */
    bool can_allocate(std::int64_t n) const { return num_free() >= n; }

    /** @return free block count. */
    std::int64_t num_free() const { return num_blocks_ - used_; }

    /** @return total block count. */
    std::int64_t num_blocks() const { return num_blocks_; }

    /** @return allocated block count. */
    std::int64_t num_used() const { return used_; }

    /** @return tokens per block. */
    int block_size() const { return block_size_; }

    /** @return blocks needed to hold `tokens` tokens. */
    std::int64_t blocks_for_tokens(std::int64_t tokens) const
    {
        return ceil_div(tokens, block_size_);
    }

    /** @return fraction of the pool currently allocated, in [0, 1]. */
    double utilization() const
    {
        return num_blocks_ == 0 ? 0.0
                                : static_cast<double>(used_) /
                                      static_cast<double>(num_blocks_);
    }

  private:
    std::int64_t num_blocks_;
    int block_size_;
    std::int64_t used_ = 0;
};

} // namespace shiftpar::kvcache
