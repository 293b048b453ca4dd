/**
 * @file
 * Per-request block table: how many cache blocks hold one sequence.
 */

#pragma once

#include <cstdint>

#include "kvcache/block_allocator.h"

namespace shiftpar::kvcache {

/**
 * Tracks the tokens of one sequence and the block count backing them.
 *
 * Growth is all-or-nothing: `append_tokens` either acquires every block the
 * new tokens need or acquires none (so a failed admission leaves the pool
 * unchanged and the request can be retried or preempted cleanly).
 */
class BlockTable
{
  public:
    /**
     * Extend the sequence by `tokens` tokens, allocating blocks on demand.
     *
     * @return true on success; false (with no allocation) when the pool
     * cannot supply the required blocks.
     */
    bool append_tokens(std::int64_t tokens, BlockAllocator& allocator)
    {
        SP_ASSERT(tokens >= 0);
        const std::int64_t needed =
            allocator.blocks_for_tokens(num_tokens_ + tokens);
        if (needed > num_blocks_) {
            if (!allocator.allocate(needed - num_blocks_))
                return false;
            num_blocks_ = needed;
        }
        num_tokens_ += tokens;
        return true;
    }

    /** Release all blocks back to `allocator` and reset to empty. */
    void release(BlockAllocator& allocator)
    {
        allocator.free(num_blocks_);
        num_blocks_ = 0;
        num_tokens_ = 0;
    }

    /** @return tokens currently stored. */
    std::int64_t num_tokens() const { return num_tokens_; }

    /** @return blocks currently owned. */
    std::int64_t num_blocks() const { return num_blocks_; }

  private:
    std::int64_t num_tokens_ = 0;
    std::int64_t num_blocks_ = 0;
};

} // namespace shiftpar::kvcache
