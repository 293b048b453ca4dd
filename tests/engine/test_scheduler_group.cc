/** @file The decode group: a scheduler that advances its decoders as one
 *  group stays step-for-step identical, lifecycle events and prefix
 *  evictions included, to one whose group is dissolved before every step
 *  (so every decoder is planned explicitly, and every shortage walks
 *  them), its
 *  slot-indexed finish heap pops in (finish, admitted) order through
 *  random joins and removals, and the Debug oracle catches a corrupted
 *  group. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/scheduler.h"
#include "kvcache/layout.h"
#include "model/presets.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace shiftpar::engine {

/** Reads, dissolves and corrupts a Scheduler's decode group on purpose. */
struct SchedulerTestPeer
{
    static void dissolve(Scheduler& s) { s.dissolve(); }

    /** A group step, room made for it or not. */
    static bool
    group_step(const Scheduler& s)
    {
        return s.path_ == Scheduler::Path::kGroup ||
               s.path_ == Scheduler::Path::kRoomMade;
    }

    /** A group step that `make_room` evicted or preempted for. */
    static bool
    room_made(const Scheduler& s)
    {
        return s.path_ == Scheduler::Path::kRoomMade;
    }

    static bool
    budget_fallback(const Scheduler& s)
    {
        return s.path_ == Scheduler::Path::kBudget;
    }

    /** The decode walk ran on shortage: `make_room` bailed out or, with
     *  k > block size, was not tried. */
    static bool
    shortage_fallback(const Scheduler& s)
    {
        return s.path_ == Scheduler::Path::kShortage;
    }

    static bool member(const Scheduler&, const Request& r)
    {
        return r.synced_epoch >= 0;
    }

    /** @return the tokens `r`'s `decoded` and KV lag behind. */
    static std::int64_t
    lag(const Scheduler& s, const Request& r)
    {
        return member(s, r) ? s.opts_.decode_tokens_per_step *
                                  (s.group_.epoch - r.synced_epoch)
                            : 0;
    }

    static std::int64_t& first_class(Scheduler& s)
    {
        return s.group_.classes[0];
    }

    static parallel::BatchWork& work(Scheduler& s) { return s.group_.work; }

    /** Add synced decoder `r` to the group and its finish heap. */
    static void join(Scheduler& s, Request* r) { s.join(r); }

    /** Take member `r` out of the group through its heap slot. */
    static void drop(Scheduler& s, Request* r) { s.drop_member(r); }

    /** Pop the heap's front member as a group step pops a finisher.
     *  @return its heap entry. */
    static Scheduler::Member
    pop(Scheduler& s)
    {
        const Scheduler::Member front = s.group_.heap.front();
        s.drop_member(front.request);
        return front;
    }

    /** @return true when every heap entry's request points at its slot. */
    static bool
    slots_current(const Scheduler& s)
    {
        for (std::size_t i = 0; i < s.group_.heap.size(); ++i) {
            if (s.group_.heap[i].request->heap_slot !=
                static_cast<std::int32_t>(i))
                return false;
        }
        return true;
    }
};

namespace {

struct Case
{
    std::int64_t k;     ///< decode tokens per step
    int block_size;
    bool prefix;        ///< prefix caching on
    std::int64_t capacity;  ///< KV tokens; the small one forces shortages
    std::int64_t budget = 512;  ///< max_batched_tokens; 32 caps k·seqs
    /** Prefixes of at most one block (bs 16): a shortage's last eviction
     *  often frees exactly the block it needs. */
    bool small_prefixes = false;
};

std::string
case_name(const ::testing::TestParamInfo<Case>& info)
{
    const Case& c = info.param;
    std::string name = "k";
    name += std::to_string(c.k);
    name += "_bs";
    name += std::to_string(c.block_size);
    name += c.prefix ? "_prefix_cap" : "_noprefix_cap";
    name += std::to_string(c.capacity);
    name += "_budget";
    name += std::to_string(c.budget);
    if (c.small_prefixes)
        name += "_smallprefixes";
    return name;
}

/** Records lifecycle events and eviction instants in publication order. */
struct EventLog : obs::TraceSink
{
    std::vector<std::string> events;

    void
    on_request(const obs::RequestEvent& e) override
    {
        events.push_back(std::string(obs::phase_name(e.phase)) + " #" +
                         std::to_string(e.request) + " " +
                         std::to_string(e.tokens) + " @" +
                         std::to_string(e.t));
    }

    void
    on_instant(obs::EngineId, double t, const std::string& name) override
    {
        events.push_back(name + " @" + std::to_string(t));
    }
};

/** One scheduler over its own cache and its own copy of every request. */
struct Side
{
    Side(const Case& c, const SchedulerOptions& opts)
        : cache(c.capacity,
                kvcache::KvLayout::base(model::llama_70b(), {1, 8}),
                c.block_size),
          sched(opts, &cache), sched_k(opts.decode_tokens_per_step)
    {
        sched.set_trace(&log, 0);
        cache.set_trace(&log, 0, &clock);
    }

    kvcache::CacheManager cache;
    Scheduler sched;
    std::int64_t sched_k;
    std::vector<std::unique_ptr<Request>> requests;  // index == id
    EventLog log;
    double clock = 0.0;  ///< the eviction instants' time
};

/** What one step did, in the terms the two sides must agree on. */
struct StepResult
{
    bool stepped = false;
    parallel::BatchWork work;
    std::vector<std::pair<RequestId, double>> finished;
};

/** How often the group side met each case the test is here to cover. */
struct Seen
{
    std::int64_t group_steps = 0, admits = 0, joins = 0, finishes = 0,
                 short_finishes = 0, shortages = 0, room_made = 0,
                 bail_outs = 0, budget_clips = 0, member_cancels = 0,
                 expiries = 0;
};

/** One engine step (`Engine::step`'s schedule + on_step_complete). The
 *  reference side dissolves its group first, so it always falls back;
 *  the group side tallies what its step did into `seen`. */
StepResult
step(Side& s, double t, double dt, Seen* seen)
{
    StepResult out;
    s.clock = t;
    if (seen == nullptr)
        SchedulerTestPeer::dissolve(s.sched);
    const std::size_t running = s.sched.num_running();
    const BatchPlan& plan = s.sched.schedule(t);
    if (plan.empty())
        return out;
    out.stepped = true;
    out.work = plan.work();
    std::vector<Request*> finished;
    s.sched.on_step_complete(t + dt, plan, &finished);
    for (const Request* r : finished)
        out.finished.emplace_back(r->id, r->finished);
    if (seen == nullptr)
        return out;
    const bool walked = SchedulerTestPeer::shortage_fallback(s.sched);
    const bool room_made = SchedulerTestPeer::room_made(s.sched);
    seen->shortages += walked;
    seen->room_made += room_made;
    seen->bail_outs += walked && s.sched_k <= s.cache.block_size();
    seen->budget_clips += SchedulerTestPeer::budget_fallback(s.sched);
    if (!SchedulerTestPeer::group_step(s.sched))
        return out;
    ++seen->group_steps;
    const std::int64_t k = s.sched_k;
    seen->admits += s.sched.num_running() + finished.size() > running;
    for (const ScheduledChunk& c : plan.chunks) {
        if (c.is_prefill) {
            seen->joins += c.request->state == RequestState::kDecode;
        } else {
            seen->finishes += 1;
            seen->short_finishes += c.new_tokens < k;
        }
    }
    return out;
}

std::vector<RequestId>
ids(const std::vector<Request*>& rs)
{
    std::vector<RequestId> out;
    for (const Request* r : rs)
        out.push_back(r->id);
    return out;
}

bool
live(const Request& r)
{
    return r.state == RequestState::kWaiting ||
           r.state == RequestState::kPrefill ||
           r.state == RequestState::kDecode;
}

// The suite keeps the name it had when the fast path was a steady run,
// so its per-case results stay comparable across versions.
class SteadyDifferential : public ::testing::TestWithParam<Case>
{
};

TEST_P(SteadyDifferential, MatchesTheFullPathStepForStep)
{
    const Case& c = GetParam();
    const SchedulerOptions opts{.max_batched_tokens = c.budget,
                                .max_running_seqs = 64,
                                .decode_tokens_per_step = c.k,
                                .enable_prefix_caching = c.prefix};
    Seen seen;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed * 7919 + static_cast<std::uint64_t>(c.k));
        Side ref(c, opts), grp(c, opts);
        // Arrivals come in bursts so the waiting queue drains between
        // them and groups form; some carry deadlines. Under the small
        // budget all arrive at once, so k tokens each can overrun it.
        std::vector<RequestSpec> specs;
        const int burst_size = c.budget < 64 ? 48 : 8;
        double burst = 0.0;
        for (int i = 0; i < 48; ++i) {
            if (i % burst_size == 0)
                burst += rng.uniform(0.2, 1.5);
            RequestSpec spec;
            spec.arrival = burst + rng.uniform(0.0, 0.05);
            // Some prompts are shorter than k: a step that completes
            // them can leave more decoders than the budget has k each
            // for. Under the small budget most are, so that happens.
            const double short_prompts = c.budget < 64 ? 0.6 : 0.2;
            spec.prompt_tokens = rng.bernoulli(short_prompts)
                                     ? rng.uniform_int(1, 3)
                                     : rng.uniform_int(4, 200);
            spec.output_tokens = rng.uniform_int(1, 160);
            spec.priority = static_cast<int>(rng.uniform_int(0, 1));
            if (rng.bernoulli(0.5)) {
                spec.prefix_id = rng.uniform_int(0, 2);
                spec.prefix_tokens = std::min(
                    spec.prompt_tokens, c.small_prefixes
                                            ? rng.uniform_int(1, 16)
                                            : rng.uniform_int(8, 96));
            }
            if (rng.bernoulli(0.25))
                spec.deadline = spec.arrival + rng.uniform(0.1, 1.5);
            specs.push_back(spec);
        }
        for (Side* s : {&ref, &grp}) {
            for (std::size_t i = 0; i < specs.size(); ++i) {
                auto r = std::make_unique<Request>();
                r->id = static_cast<RequestId>(i);
                r->spec = specs[i];
                r->prefill_target = specs[i].prompt_tokens;
                s->requests.push_back(std::move(r));
            }
        }

        const double dt = 0.01;
        std::size_t next = 0;
        double t = 0.0;
        for (int n = 0; n < 20000; ++n, t += dt) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                         std::to_string(n));
            if (next == specs.size() && !ref.sched.has_work())
                break;
            for (; next < specs.size() && specs[next].arrival <= t; ++next) {
                ref.sched.enqueue(ref.requests[next].get());
                grp.sched.enqueue(grp.requests[next].get());
            }
            // Cancels aim at group members more often than not.
            if (next > 0 && rng.bernoulli(0.03)) {
                const std::int64_t last = static_cast<std::int64_t>(next) - 1;
                const auto victim =
                    static_cast<std::size_t>(rng.uniform_int(0, last));
                if (live(*ref.requests[victim])) {
                    seen.member_cancels += SchedulerTestPeer::member(
                        grp.sched, *grp.requests[victim]);
                    ref.sched.cancel(ref.requests[victim].get());
                    grp.sched.cancel(grp.requests[victim].get());
                }
            }
            const auto gone = ref.sched.expire_due(t);
            ASSERT_EQ(ids(gone), ids(grp.sched.expire_due(t)));
            seen.expiries += !gone.empty();

            const StepResult a = step(ref, t, dt, nullptr);
            const StepResult b = step(grp, t, dt, &seen);
            // Preemptions, prefill chunks, finishes and expiries in the
            // same order, and the same eviction instants between them.
            ASSERT_EQ(ref.log.events, grp.log.events);
            ref.log.events.clear();
            grp.log.events.clear();
            ASSERT_EQ(a.stepped, b.stepped);
            ASSERT_TRUE(a.work == b.work);
            ASSERT_EQ(a.finished, b.finished);
            ASSERT_EQ(ref.sched.outstanding_tokens(),
                      grp.sched.outstanding_tokens());
            ASSERT_EQ(ref.cache.used_blocks(), grp.cache.used_blocks());
            ASSERT_EQ(ref.sched.preemption_count(),
                      grp.sched.preemption_count());
            ASSERT_EQ(ref.sched.num_running(), grp.sched.num_running());
            ASSERT_EQ(ref.sched.num_waiting(), grp.sched.num_waiting());
            ASSERT_TRUE(ref.sched.consistent());
            ASSERT_TRUE(grp.sched.consistent());
            // Every request, a group member taken its lag ahead.
            for (std::size_t i = 0; i < specs.size(); ++i) {
                const Request& x = *ref.requests[i];
                const Request& y = *grp.requests[i];
                const std::int64_t lag = SchedulerTestPeer::lag(grp.sched, y);
                ASSERT_EQ(x.state, y.state) << "request " << i;
                ASSERT_EQ(x.decoded, y.decoded + lag) << "request " << i;
                ASSERT_EQ(x.prefilled, y.prefilled) << "request " << i;
                ASSERT_EQ(x.kv.num_tokens(), y.kv.num_tokens() + lag)
                    << "request " << i;
                ASSERT_EQ(x.finished, y.finished) << "request " << i;
            }
        }
        EXPECT_FALSE(ref.sched.has_work()) << "seed " << seed;
        EXPECT_EQ(next, specs.size());
    }
    // The stream must have exercised what it is here to exercise.
    EXPECT_GT(seen.group_steps, 0);
    EXPECT_GT(seen.admits, 0);
    EXPECT_GT(seen.joins, 0);
    EXPECT_GT(seen.finishes, 0);
    EXPECT_GT(seen.member_cancels, 0);
    EXPECT_GT(seen.expiries, 0);
    if (c.k > 1) {
        EXPECT_GT(seen.short_finishes, 0);
    }
    // Every small pool walks the decoders on shortage: with k > block
    // size room is never made from the back, and otherwise a decoder
    // victim bails out to the walk.
    if (c.capacity < 4096) {
        EXPECT_GT(seen.shortages, 0);
        if (c.k <= c.block_size) {
            EXPECT_GT(seen.bail_outs, 0);
        }
    }
    if (c.k > c.block_size) {
        EXPECT_EQ(seen.room_made, 0);
    } else if (c.capacity < 4096) {
        EXPECT_GT(seen.room_made, 0);
    }
    if (c.budget < 64) {
        EXPECT_GT(seen.budget_clips, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    KBlocksPrefixPool, SteadyDifferential,
    ::testing::Values(Case{1, 16, false, 768}, Case{1, 16, true, 768},
                      Case{1, 1, false, 768}, Case{1, 1, true, 768},
                      Case{2, 16, false, 768}, Case{2, 16, true, 768},
                      Case{2, 1, true, 768}, Case{3, 16, false, 768},
                      Case{3, 16, true, 768}, Case{3, 1, false, 768},
                      Case{1, 16, true, 1 << 16}, Case{3, 16, true, 1 << 16},
                      Case{2, 16, false, 1 << 16, 32},
                      Case{3, 1, true, 1 << 16, 32},
                      Case{1, 16, true, 768, 512, true},
                      Case{2, 16, true, 768, 512, true}),
    case_name);

TEST(DecodeGroup, FallsBackWhenKTokensEachOverrunTheBudget)
{
    // Three one-token prompts complete prefill in one step and join the
    // group; two decode tokens each would then need 6 > 5 batched tokens,
    // so the next step falls back and the budget clips the last request
    // to one token.
    kvcache::CacheManager cache(
        4096, kvcache::KvLayout::base(model::llama_70b(), {1, 8}), 16);
    Scheduler s({.max_batched_tokens = 5, .decode_tokens_per_step = 2},
                &cache);
    std::vector<std::unique_ptr<Request>> requests;
    for (int i = 0; i < 3; ++i) {
        auto r = std::make_unique<Request>();
        r->id = i;
        r->spec = {0.0, 1, 10};
        r->prefill_target = 1;
        s.enqueue(r.get());
        requests.push_back(std::move(r));
    }
    std::vector<Request*> finished;
    s.on_step_complete(0.1, s.schedule(0.0), &finished);
    ASSERT_EQ(s.num_running(), 3u);
    EXPECT_EQ(s.schedule(0.1).work().total_new_tokens(), 5);
    EXPECT_TRUE(SchedulerTestPeer::budget_fallback(s));
}

TEST(DecodeGroup, IndexedHeapPopsInOrderThroughRandomJoinsAndRemovals)
{
    // With k = 1 at epoch 0 a member is due at epoch `output_tokens`, so
    // four finish epochs over up to hundreds of members leave the shuffled
    // admission stamps to break most ties. Members join, leave through
    // their slots and pop as finishers at random; every pop must be the
    // least (finish, admitted) left, and every slot must stay current.
    kvcache::CacheManager cache(
        4096, kvcache::KvLayout::base(model::llama_70b(), {1, 8}), 16);
    Scheduler s({}, &cache);
    Rng rng(2026);
    constexpr std::int64_t kRequests = 3000;
    std::vector<Request> requests(kRequests);
    for (std::int64_t i = 0; i < kRequests; ++i) {
        Request& r = requests[static_cast<std::size_t>(i)];
        r.id = i;
        r.admitted = i;
        r.state = RequestState::kDecode;
        r.spec.output_tokens = rng.uniform_int(1, 4);
    }
    for (std::int64_t i = kRequests - 1; i > 0; --i) {
        std::swap(requests[static_cast<std::size_t>(i)].admitted,
                  requests[static_cast<std::size_t>(
                               rng.uniform_int(0, i))].admitted);
    }
    std::set<std::pair<std::int64_t, std::int64_t>> reference;
    std::vector<Request*> members;
    std::size_t joined = 0;
    std::int64_t drops = 0, pops = 0;
    while (joined < requests.size() || !members.empty()) {
        const std::int64_t op = rng.uniform_int(0, 4);
        if (joined < requests.size() && (op < 3 || members.empty())) {
            Request* r = &requests[joined++];
            SchedulerTestPeer::join(s, r);
            reference.emplace(r->spec.output_tokens, r->admitted);
            members.push_back(r);
        } else if (op == 3) {
            const auto i = static_cast<std::size_t>(
                rng.uniform_int(0, std::ssize(members) - 1));
            Request* r = members[i];
            SchedulerTestPeer::drop(s, r);
            ASSERT_EQ(r->heap_slot, -1);
            reference.erase({r->spec.output_tokens, r->admitted});
            members[i] = members.back();
            members.pop_back();
            ++drops;
        } else {
            const auto m = SchedulerTestPeer::pop(s);
            ASSERT_EQ(std::pair(m.finish, m.admitted), *reference.begin());
            ASSERT_EQ(m.request->heap_slot, -1);
            reference.erase(reference.begin());
            std::erase(members, m.request);
            ++pops;
        }
        ASSERT_EQ(members.size(), reference.size());
        ASSERT_TRUE(SchedulerTestPeer::slots_current(s));
    }
    EXPECT_GT(drops, 500);
    EXPECT_GT(pops, 500);
}

#ifndef NDEBUG

// The oracle is an SP_DEBUG_ASSERT, compiled out under NDEBUG, so these
// death tests exist only in Debug builds (the sanitizer CI job's).

/** Two requests prefilled in step 1, decoding as a group from step 2. */
struct TwoMembers
{
    TwoMembers()
        : cache(4096, kvcache::KvLayout::base(model::llama_70b(), {1, 8}),
                16),
          s({.max_batched_tokens = 512}, &cache)
    {
        for (std::int64_t prompt : {20, 40}) {
            auto r = std::make_unique<Request>();
            r->id = std::ssize(requests);
            r->spec = {0.0, prompt, 50};
            r->prefill_target = prompt;
            s.enqueue(r.get());
            requests.push_back(std::move(r));
        }
        for (double t : {0.0, 0.1})
            s.on_step_complete(t + 0.1, s.schedule(t), &finished);
    }

    kvcache::CacheManager cache;
    Scheduler s;
    std::vector<std::unique_ptr<Request>> requests;
    std::vector<Request*> finished;
};

TEST(DecodeGroupDeathTest, OracleCatchesACorruptedClassCount)
{
    TwoMembers g;
    ASSERT_TRUE(g.finished.empty());
    ASSERT_TRUE(SchedulerTestPeer::group_step(g.s));
    ASSERT_TRUE(g.s.consistent());
    SchedulerTestPeer::first_class(g.s) += 1;
    EXPECT_FALSE(g.s.consistent());
    EXPECT_DEATH(g.s.on_step_complete(0.3, g.s.schedule(0.2), &g.finished),
                 "decode group drifted");
}

TEST(DecodeGroupDeathTest, OracleCatchesACorruptedDecodeSum)
{
    TwoMembers g;
    ASSERT_TRUE(g.s.consistent());
    SchedulerTestPeer::work(g.s).decodes.pairs += 1;
    EXPECT_FALSE(g.s.consistent());
    EXPECT_DEATH(g.s.on_step_complete(0.3, g.s.schedule(0.2), &g.finished),
                 "decode group drifted");
}

TEST(DecodeGroupDeathTest, OracleCatchesACorruptedHeapSlot)
{
    TwoMembers g;
    ASSERT_TRUE(g.s.consistent());
    Request& r = *g.requests[0];
    ASSERT_GE(r.heap_slot, 0);
    r.heap_slot = 1 - r.heap_slot;  // the other member's slot
    EXPECT_FALSE(g.s.consistent());
    EXPECT_DEATH(g.s.on_step_complete(0.3, g.s.schedule(0.2), &g.finished),
                 "decode group drifted");
}

#endif  // !NDEBUG

} // namespace
} // namespace shiftpar::engine
