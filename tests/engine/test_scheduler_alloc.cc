/** @file Group steps allocate nothing: once its buffers have grown, a
 *  scheduler takes group steps with joins and finishes without a single
 *  heap allocation. The binary replaces the global allocation functions
 *  with counting ones, so it holds this one test. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "engine/scheduler.h"
#include "kvcache/layout.h"
#include "model/presets.h"
#include "util/rng.h"

namespace {

bool g_counting = false;    // count only inside the measured calls
std::int64_t g_allocs = 0;  // allocations counted

void*
counted_alloc(std::size_t n)
{
    if (g_counting)
        ++g_allocs;
    return std::malloc(n == 0 ? 1 : n);
}

void*
counted_aligned_alloc(std::size_t n, std::align_val_t al)
{
    if (g_counting)
        ++g_allocs;
    const auto a = static_cast<std::size_t>(al);
    return std::aligned_alloc(a, (n + a - 1) / a * a);
}

} // namespace

void*
operator new(std::size_t n)
{
    if (void* p = counted_alloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return operator new(n);
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return counted_alloc(n);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return counted_alloc(n);
}

void*
operator new(std::size_t n, std::align_val_t al)
{
    if (void* p = counted_aligned_alloc(n, al))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t al)
{
    return operator new(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace shiftpar::engine {

/** Tells whether the last `schedule` took a group step. */
struct SchedulerTestPeer
{
    static bool
    group_step(const Scheduler& s)
    {
        return s.path_ == Scheduler::Path::kGroup;
    }
};

namespace {

TEST(GroupStep, AllocatesNothingOnceItsBuffersHaveGrown)
{
    constexpr int kRequests = 64;
    kvcache::CacheManager cache(
        1 << 20, kvcache::KvLayout::base(model::llama_70b(), {1, 8}), 16);
    Scheduler s({.max_batched_tokens = 8192,
                 .max_running_seqs = kRequests,
                 .decode_tokens_per_step = 2,
                 .enable_prefix_caching = false},
                &cache);
    std::vector<std::unique_ptr<Request>> requests;
    std::vector<Request*> finished;
    finished.reserve(kRequests);
    const auto submit = [&](Request* r, double t, std::int64_t prompt,
                            std::int64_t output) {
        const RequestId id = r->id;
        *r = Request{};
        r->id = id;
        r->spec = {t, prompt, output};
        r->prefill_target = prompt;
        s.enqueue(r);
    };

    // Warm-up: all 64 admitted in one step, joining in the next and
    // finishing together, so every buffer reaches its largest size.
    for (int i = 0; i < kRequests; ++i) {
        requests.push_back(std::make_unique<Request>());
        requests.back()->id = i;
        submit(requests.back().get(), 0.0, 8, 5);
    }
    double t = 0.0;
    for (; s.has_work(); t += 0.01) {
        finished.clear();
        s.on_step_complete(t + 0.01, s.schedule(t), &finished);
    }
    ASSERT_EQ(std::ssize(finished), kRequests);

    // Measured: each finished request comes back with a new length,
    // outside the measured calls (the waiting queue may grow).
    Rng rng(7);
    std::int64_t joins = 0, finishes = 0, group_steps = 0;
    for (Request* r : finished)
        submit(r, t, rng.uniform_int(1, 50), rng.uniform_int(1, 40));
    for (int n = 0; n < 1000; ++n, t += 0.01) {
        finished.clear();
        g_counting = true;
        const BatchPlan& plan = s.schedule(t);
        group_steps += SchedulerTestPeer::group_step(s);
        s.on_step_complete(t + 0.01, plan, &finished);
        g_counting = false;
        // A prefill that completed without finishing joined the group.
        for (const ScheduledChunk& c : plan.chunks)
            joins += c.is_prefill &&
                     c.request->state == RequestState::kDecode;
        finishes += std::ssize(finished);
        for (Request* r : finished)
            submit(r, t + 0.01, rng.uniform_int(1, 50),
                   rng.uniform_int(1, 40));
    }
    EXPECT_EQ(g_allocs, 0);
    EXPECT_EQ(group_steps, 1000);
    EXPECT_GT(joins, 0);
    EXPECT_GT(finishes, 0);
}

} // namespace
} // namespace shiftpar::engine
