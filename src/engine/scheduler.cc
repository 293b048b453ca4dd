#include "engine/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/logging.h"

namespace shiftpar::engine {

namespace {

/** @return the tokens `r` still owes: prefill plus output. */
std::int64_t
owed_tokens(const Request* r)
{
    return r->prefill_remaining() + (r->spec.output_tokens - r->decoded);
}

/** Decode-group heap order: a min-heap on (finish epoch, admission). */
constexpr auto finishes_later = [](const auto& a, const auto& b) {
    return a.finish != b.finish ? a.finish > b.finish
                                : a.admitted > b.admitted;
};

/** @return the first position in `running` (admission order) admitted
 *  no earlier than `r`: `r`'s own while it is running. */
template <typename Running>
auto
find_admitted(Running& running, const Request* r)
{
    return std::lower_bound(running.begin(), running.end(), r->admitted,
                            [](const Request* a, std::int64_t stamp) {
                                return a->admitted < stamp;
                            });
}

} // namespace

std::int64_t
BatchPlan::retract(const Request* r)
{
    // A request has at most one chunk per step.
    const auto it = std::find_if(chunks.begin(), chunks.end(),
                                 [&](const ScheduledChunk& c) {
                                     return c.request == r;
                                 });
    if (it == chunks.end())
        return 0;
    work_.remove(it->new_tokens, it->past, it->is_prefill);
    const std::int64_t tokens = it->new_tokens;
    chunks.erase(it);
    return tokens;
}

Scheduler::Scheduler(SchedulerOptions opts, kvcache::CacheManager* cache)
    : opts_(opts), cache_(cache)
{
    SP_ASSERT(cache != nullptr);
    SP_ASSERT(opts_.max_batched_tokens >= 1 && opts_.max_running_seqs >= 1);
    SP_ASSERT(opts_.decode_tokens_per_step >= 1);
    const std::int64_t bs = cache_->block_size();
    group_.classes.assign(static_cast<std::size_t>(bs), 0);
    k_blocks_ = opts_.decode_tokens_per_step / bs;
    k_rem_ = opts_.decode_tokens_per_step % bs;
}

void
Scheduler::publish(const Request* r, obs::RequestPhase phase, double t,
                   std::int64_t tokens) const
{
    if (trace_)
        trace_->publish_request({trace_id_, r->id, phase, t, tokens});
}

void
Scheduler::enqueue(Request* r)
{
    SP_ASSERT(r != nullptr && r->state == RequestState::kWaiting);
    if (r->spec.deadline > 0.0)
        deadline_floor_ = std::min(deadline_floor_, r->spec.deadline);
    outstanding_ += owed_tokens(r);
    insert_waiting(r, /*front_of_class=*/false);
}

void
Scheduler::insert_waiting(Request* r, bool front_of_class)
{
    // Priority classes (descending), FCFS within a class. New arrivals go
    // behind their class; preempted requests return to the front of
    // theirs (they have the oldest in-flight work). Each search starts at
    // the end it stops nearest to, so a single-class queue inserts in O(1).
    const int prio = r->spec.priority;
    auto pos = waiting_.begin();
    if (front_of_class) {
        while (pos != waiting_.end() && (*pos)->spec.priority > prio)
            ++pos;
    } else {
        pos = waiting_.end();
        while (pos != waiting_.begin() &&
               (*std::prev(pos))->spec.priority < prio)
            --pos;
    }
    waiting_.insert(pos, r);
    if (r->prefill_done())
        ++waiting_prefilled_;
}

std::deque<Request*>::iterator
Scheduler::erase_waiting(std::deque<Request*>::iterator it)
{
    if ((*it)->prefill_done())
        --waiting_prefilled_;
    return waiting_.erase(it);
}

std::int64_t
Scheduler::preempt_one(const Request* keep)
{
    // vLLM preempts the most recently admitted sequence first so the oldest
    // requests keep their progress (FCFS fairness under memory pressure).
    // Prefer victims that are not already part of this step's plan; when
    // none exists, evict a planned one, retract its chunk, and report the
    // retracted tokens so the caller can refund its budget.
    // A member the pass has planned is synced to the step's end epoch.
    auto in_plan = [&](const Request* r) {
        return r->synced_epoch > group_.epoch ||
               std::any_of(plan_.chunks.begin(), plan_.chunks.end(),
                           [&](const ScheduledChunk& c) {
                               return c.request == r;
                           });
    };
    for (int pass = 0; pass < 2; ++pass) {
        for (auto it = running_.rbegin(); it != running_.rend(); ++it) {
            Request* victim = *it;
            if (victim == keep)
                continue;
            if (pass == 0 && in_plan(victim))
                continue;
            const std::int64_t retracted =
                plan_.retract(victim) + unlink_running(victim);
            retire(victim);
            victim->reset_for_recompute();
            outstanding_ += owed_tokens(victim);  // back, owing a recompute
            running_.erase(std::next(it).base());
            insert_waiting(victim, /*front_of_class=*/true);
            ++preemptions_;
            publish(victim, obs::RequestPhase::kPreempt, sched_now_);
            return retracted;
        }
    }
    return -1;
}

void
Scheduler::admit(Request* r, RequestState state, double now)
{
    r->state = state;
    if (r->first_scheduled < 0.0) {
        r->first_scheduled = now;
        publish(r, obs::RequestPhase::kFirstSchedule, now);
    } else {
        publish(r, obs::RequestPhase::kResume, now);
    }
    r->admitted = admissions_++;
    running_.push_back(r);
}

std::int64_t
Scheduler::unlink_running(Request* r)
{
    if (r->state == RequestState::kPrefill) {
        std::erase(prefilling_, r);
        return 0;
    }
    return r->synced_epoch >= 0 ? drop_member(r) : 0;
}

std::int64_t
Scheduler::drop_member(Request* r)
{
    const std::int64_t k = opts_.decode_tokens_per_step;
    std::int64_t planned = 0;
    if (r->synced_epoch > group_.epoch) {
        // Planned by this step's pass: give its k tokens back.
        planned = k;
        r->decoded -= k;
        r->synced_epoch = group_.epoch;
        plan_.work_.remove(k, r->prefix_filled + r->kv.num_tokens() - k,
                           /*is_prefill=*/false);
    } else {
        sync(r);
    }
    leave(r, r->kv.num_tokens() - planned);
    // The last entry fills the freed slot and sifts from there.
    std::vector<Member>& heap = group_.heap;
    const auto slot = static_cast<std::size_t>(r->heap_slot);
    SP_ASSERT(slot < heap.size() && heap[slot].request == r,
              "decode-group member not in heap");
    heap[slot] = heap.back();
    heap.pop_back();
    if (slot < heap.size())
        sift(slot);
    r->heap_slot = -1;
    r->synced_epoch = -1;
    return planned;
}

void
Scheduler::sift(std::size_t slot)
{
    // Up while the entry precedes its parent, else down while a child
    // precedes it; the entry and every one it passes land in new slots.
    std::vector<Member>& heap = group_.heap;
    const Member m = heap[slot];
    const auto put = [&](std::size_t i, const Member& e) {
        heap[i] = e;
        e.request->heap_slot = static_cast<std::int32_t>(i);
    };
    while (slot > 0 && finishes_later(heap[(slot - 1) / 2], m)) {
        put(slot, heap[(slot - 1) / 2]);
        slot = (slot - 1) / 2;
    }
    for (std::size_t c = 2 * slot + 1; c < heap.size(); c = 2 * slot + 1) {
        if (c + 1 < heap.size() && finishes_later(heap[c], heap[c + 1]))
            ++c;
        if (!finishes_later(m, heap[c]))
            break;
        put(slot, heap[c]);
        slot = c;
    }
    put(slot, m);
}

const BatchPlan&
Scheduler::schedule(double now)
{
    plan_.chunks.clear();
    plan_.work_ = {};
    std::int64_t budget = opts_.max_batched_tokens;
    sched_now_ = now;  // stamps preemption/lifecycle events this call

    // ---- Migrated-request admission ---------------------------------------
    // Requests arriving already prefilled (disaggregated decode workers)
    // materialize their transferred KV without compute; doing this before
    // the decode pass lets them decode in this very step. The scan runs
    // only while such a request waits.
    const std::size_t migrated_from = running_.size();
    bool migrated_blocked = false;
    for (auto it = waiting_.begin();
         waiting_prefilled_ > 0 && it != waiting_.end() &&
         static_cast<std::int64_t>(running_.size()) <
             opts_.max_running_seqs;) {
        Request* r = *it;
        if (r->spec.arrival > now || !r->prefill_done()) {
            ++it;
            continue;
        }
        if (migrated_blocked || !cache_->try_append(r->kv, r->prefilled)) {
            // Keep intra-class FCFS (same rule as the prefill pass): later
            // migrated requests must not jump a cache-blocked one, but the
            // scan continues so non-migrated requests keep their slots.
            migrated_blocked = true;
            ++it;
            continue;
        }
        it = erase_waiting(it);
        admit(r, RequestState::kDecode, now);
    }

    // ---- Decode pass: k tokens per running sequence ------------------------
    // A group step plans the members without reading them. Otherwise the
    // pass plans every decoder in admission order and preempts on
    // shortage; members stay in the group (each decodes its k tokens,
    // written at once) unless the budget clips the pass, which first
    // dissolves the group.
    if (!plan_group_step(migrated_from, &budget)) {
        if (path_ == Path::kBudget)
            dissolve();
        std::size_t i = 0;
        for (; i < running_.size() && budget > 0;) {
            Request* r = running_[i];
            if (r->state != RequestState::kDecode) {
                ++i;
                continue;
            }
            const bool member = r->synced_epoch >= 0;
            if (member)
                sync(r);
            const std::int64_t past = r->prefix_filled + r->kv.num_tokens();
            // Cap the chunk at the remaining budget: with multi-token
            // decode steps (speculative decoding) an uncapped chunk could
            // push the batched tokens past max_batched_tokens, distorting
            // the ShiftController's Alg. 2 decision near the threshold.
            const std::int64_t tokens =
                std::min({opts_.decode_tokens_per_step,
                          r->spec.output_tokens - r->decoded, budget});
            SP_ASSERT(tokens >= 1);
            while (!cache_->try_append(r->kv, tokens)) {
                const std::int64_t retracted = preempt_one(r);
                if (retracted < 0) {
                    fatal("KV cache cannot hold a single decoding request; "
                          "increase memory or reduce context");
                }
                // A planned victim's chunk was retracted: refund its
                // tokens so the freed budget stays spendable this step.
                budget += retracted;
                // Preemption may have removed requests before the cursor.
                i = static_cast<std::size_t>(find_admitted(running_, r) -
                                             running_.begin());
            }
            if (member) {
                // Its progress is written now, so it is synced to the
                // epoch this step ends; `on_step_complete` skips it.
                plan_.work_.add(tokens, past, /*is_prefill=*/false);
                r->decoded += tokens;
                r->synced_epoch = group_.epoch + 1;
            } else {
                plan_.push({r, tokens, past, false});
            }
            budget -= tokens;
            ++i;
        }
        // When every decoder got its tokens, the chunk walk of
        // `on_step_complete` can re-form a dissolved group; only a budget
        // clip leaves a decoder out, and it has dissolved the group.
        const bool all_planned = std::none_of(
            running_.begin() + static_cast<std::ptrdiff_t>(i),
            running_.end(), [](const Request* r) {
                return r->state == RequestState::kDecode;
            });
        SP_ASSERT(all_planned || !group_.complete,
                  "a decode-group member got no tokens");
        group_.complete = all_planned;
    }

    // ---- Prefill pass ------------------------------------------------------
    // Continuing prefills and arrived waiting requests compete for the
    // chunked-prefill budget in one priority-ordered pass: a freshly
    // arrived latency-class request takes budget ahead of an in-flight
    // batch-class prefill. Within a class, continuing work precedes new
    // admissions and each list keeps its own order. Both lists are kept
    // sorted (descending class, FCFS within), so the pass merges them.
    const std::size_t admitted_from = running_.size();
    auto next = prefilling_.begin();
    auto w = waiting_.begin();
    // Admission stops for good once it is blocked or running_ is full;
    // the remaining running prefills are still served.
    bool admitting = true;
    bool kv_blocked = false;  // a prefill got no chunk for want of KV
    while (budget > 0) {
        while (admitting && w != waiting_.end() &&
               ((*w)->spec.arrival > now || (*w)->prefill_done()))
            ++w;
        admitting = admitting && w != waiting_.end();
        if (next != prefilling_.end() &&
            (!admitting || (*next)->spec.priority >= (*w)->spec.priority)) {
            const std::int64_t scheduled = schedule_prefill(*next++, budget);
            kv_blocked = kv_blocked || scheduled == 0;
            budget -= scheduled;
            continue;
        }
        if (!admitting)
            break;  // no running prefill left either
        if (static_cast<std::int64_t>(running_.size()) >=
            opts_.max_running_seqs) {
            admitting = false;
            continue;
        }
        Request* r = *w;
        attach_prefix_if_needed(r);
        const std::int64_t scheduled = schedule_prefill(r, budget);
        if (scheduled == 0) {
            // Keep intra-class FCFS: later (same or lower class) waiting
            // requests must not jump a blocked one.
            admitting = false;
            kv_blocked = true;
            continue;
        }
        w = erase_waiting(w);
        admit(r, RequestState::kPrefill, now);
        budget -= scheduled;
    }
    // This step's admissions join the prefill list behind their class.
    for (std::size_t i = admitted_from; i < running_.size(); ++i) {
        Request* r = running_[i];
        auto pos = prefilling_.end();
        while (pos != prefilling_.begin() &&
               (*std::prev(pos))->spec.priority < r->spec.priority)
            --pos;
        prefilling_.insert(pos, r);
    }

    // Livelock escape: if the cache is packed with half-prefilled requests
    // so that nothing could be scheduled, preempt the newest and retry so
    // the oldest prefill can finish (recompute preemption, vLLM-style).
    // An empty plan has no decoder, so the victim is a prefill.
    if (plan_.empty() && running_.size() > 1 && preempt_one(nullptr) >= 0)
        return schedule(now);
    // A prefill chunk is capped at the free blocks, which leave out idle
    // prefix entries: once those fill the pool, evict the least recently
    // used one and retry, or no step would ever free a block.
    if (plan_.empty() && kv_blocked &&
        cache_->evict_idle_prefixes(cache_->free_blocks() + 1))
        return schedule(now);

    return plan_;
}

bool
Scheduler::plan_group_step(std::size_t migrated_from, std::int64_t* budget)
{
    if (!group_.complete) {
        path_ = Path::kDissolved;
        return false;
    }
    // Members whose last tokens fall in this step leave the group; the
    // heap pops them in admission order, and the migrated-in decoders
    // were admitted after every member.
    const std::int64_t k = opts_.decode_tokens_per_step;
    explicit_.clear();
    while (!group_.heap.empty() &&
           group_.heap.front().finish == group_.epoch + 1) {
        Request* r = group_.heap.front().request;
        drop_member(r);  // unplanned: gives back no tokens
        explicit_.push_back(r);
    }
    explicit_.insert(explicit_.end(),
                     running_.begin() + static_cast<std::ptrdiff_t>(migrated_from),
                     running_.end());

    // The full decode pass would append k tokens to every member and
    // min(k, left) to each explicit decoder. It needs no budget clip when
    // all of them fit the budget, and no eviction or preemption when
    // their blocks fit the free blocks; then one charge covers them all.
    std::int64_t tokens = group_.work.decodes.tokens;
    std::int64_t blocks = group_blocks();
    for (const Request* r : explicit_) {
        const std::int64_t n =
            std::min(k, r->spec.output_tokens - r->decoded);
        tokens += n;
        blocks += cache_->blocks_for_tokens(r->kv.num_tokens() + n) -
                  r->kv.num_blocks();
    }
    if (tokens > *budget) {
        path_ = Path::kBudget;
        return false;
    }
    if (cache_->try_charge(blocks)) {
        path_ = Path::kGroup;
    } else if (make_room(blocks) && cache_->try_charge(blocks)) {
        path_ = Path::kRoomMade;
    } else {
        path_ = Path::kShortage;
        return false;
    }
    plan_.work_ = group_.work;
    for (Request* r : explicit_) {
        const std::int64_t n =
            std::min(k, r->spec.output_tokens - r->decoded);
        plan_.push({r, n, r->prefix_filled + r->kv.num_tokens(), false});
        cache_->credit(r->kv, n);
    }
    *budget -= tokens;
    return true;
}

bool
Scheduler::make_room(std::int64_t blocks)
{
    // With k <= block size each decoder appends into at most one new
    // block, and the walk meets each failed append by evicting idle
    // prefixes to `try_append`'s headroom (the same for any n <= k
    // tokens: `reclaim_for(k)`), then preempting the youngest
    // running request other than the failing decoder. While that victim
    // is a prefill, it is `running_.back()` whichever decoder failed, so
    // the walk's evictions and preemptions depend only on the blocks its
    // earlier decoders took (`used`): they can run before any append.
    if (opts_.decode_tokens_per_step > cache_->block_size())
        return false;
    for (std::int64_t used = 0; used < blocks; ++used) {
        while (cache_->free_blocks() - used < 1) {
            cache_->reclaim_for(opts_.decode_tokens_per_step, used);
            if (cache_->free_blocks() - used >= 1)
                break;
            // A decoder victim: the walk, rerun from here, repeats every
            // action taken so far and then picks that victim itself.
            if (running_.back()->state != RequestState::kPrefill)
                return false;
            preempt_one(nullptr);
        }
    }
    return true;
}

void
Scheduler::cancel(Request* r)
{
    SP_ASSERT(r != nullptr);
    SP_ASSERT(r->state == RequestState::kWaiting ||
                  r->state == RequestState::kPrefill ||
                  r->state == RequestState::kDecode,
              "cancel of a request that is neither waiting nor running");
    if (r->state == RequestState::kWaiting) {
        const auto it = std::find(waiting_.begin(), waiting_.end(), r);
        SP_ASSERT(it != waiting_.end(), "waiting request not in queue");
        erase_waiting(it);
    } else {
        const auto it = find_admitted(running_, r);
        SP_ASSERT(it != running_.end() && *it == r,
                  "running request not in queue");
        unlink_running(r);
        running_.erase(it);
    }
    retire(r);
    r->state = RequestState::kCancelled;
}

void
Scheduler::retire(Request* r)
{
    outstanding_ -= owed_tokens(r);
    cache_->release(r->kv);
    if (!r->prefix_attached)
        return;
    cache_->detach_prefix(r->spec.prefix_id);
    r->prefix_attached = false;
    r->filling_prefix = false;
}

template <typename Pred>
std::vector<Request*>
Scheduler::take_if(Pred pred)
{
    // The sweep visits every live request, so it also makes the deadline
    // floor exact again: the minimum over the survivors.
    std::vector<Request*> taken;
    double floor = std::numeric_limits<double>::infinity();
    const auto take = [&](Request* r) {
        if (!pred(r)) {
            if (r->spec.deadline > 0.0)
                floor = std::min(floor, r->spec.deadline);
            return false;
        }
        if (r->state != RequestState::kWaiting)
            unlink_running(r);
        retire(r);
        taken.push_back(r);
        return true;
    };
    std::erase_if(running_, take);
    for (auto it = waiting_.begin(); it != waiting_.end();)
        it = take(*it) ? erase_waiting(it) : std::next(it);
    deadline_floor_ = floor;
    return taken;
}

std::vector<Request*>
Scheduler::expire_due(double now)
{
    // Every live deadline is at or after the floor, so nothing is due
    // before it.
    if (now < deadline_floor_)
        return {};
    std::vector<Request*> expired = take_if([now](const Request* r) {
        return r->spec.deadline > 0.0 && r->spec.deadline <= now;
    });
    for (Request* r : expired) {
        r->state = RequestState::kExpired;
        publish(r, obs::RequestPhase::kExpired, now);
    }
    return expired;
}

double
Scheduler::earliest_deadline() const
{
    double earliest = std::numeric_limits<double>::infinity();
    if (std::isinf(deadline_floor_))
        return earliest;  // no live request carries a deadline
    for (const Request* r : running_)
        if (r->spec.deadline > 0.0)
            earliest = std::min(earliest, r->spec.deadline);
    for (const Request* r : waiting_)
        if (r->spec.deadline > 0.0)
            earliest = std::min(earliest, r->spec.deadline);
    return earliest;
}

std::vector<Request*>
Scheduler::drain_waiting()
{
    // Only waiting requests are kWaiting. They can hold cache state (a
    // prefix attached at the admission gate); retiring it here lets them
    // re-enter another replica clean.
    std::vector<Request*> removed = take_if([](const Request* r) {
        return r->state == RequestState::kWaiting;
    });
    for (Request* r : removed)
        r->state = RequestState::kMigrated;
    return removed;
}

std::vector<Request*>
Scheduler::fail_all()
{
    std::vector<Request*> dropped =
        take_if([](const Request*) { return true; });
    for (Request* r : dropped)
        r->state = RequestState::kLost;
    return dropped;
}

Request*
Scheduler::steal_waiting(double now, std::int64_t max_tokens)
{
    for (auto it = waiting_.rbegin(); it != waiting_.rend(); ++it) {
        Request* r = *it;
        // Only zero-progress requests move: anything scheduled before
        // (even if later preempted) or holding prefilled/prefix state has
        // sunk work into this engine that migration would discard, and
        // migrated-in prefilled requests (disaggregated decode) own KV
        // that lives on this pool. Scanning from the back moves the
        // youngest straggler: older requests keep their admission slot on
        // the donor, and the young one restarts at zero cost elsewhere.
        if (r->spec.arrival > now || r->first_scheduled >= 0.0 ||
            r->prefilled > 0 || r->prefix_attached || r->migrated_in)
            continue;
        if (r->spec.prompt_tokens + r->spec.output_tokens > max_tokens)
            continue;
        erase_waiting(std::next(it).base());
        retire(r);  // holds no KV or prefix pin: settles its owed tokens
        r->state = RequestState::kMigrated;
        return r;
    }
    return nullptr;
}

void
Scheduler::attach_prefix_if_needed(Request* r)
{
    if (!opts_.enable_prefix_caching || r->spec.prefix_id < 0 ||
        r->prefix_attached)
        return;
    // A fully-cached prompt still needs its final token computed for the
    // first logits, so the reusable prefix is capped one short.
    const std::int64_t target =
        std::min(r->spec.prefix_tokens, r->prefill_target - 1);
    if (target <= 0)
        return;
    // Hit statistics count a request's first attach only: a preempted and
    // re-admitted request re-attaches, but counting it again would inflate
    // the reported prefix hit rate.
    const auto attach = cache_->attach_prefix(
        r->spec.prefix_id, target, /*count_hit=*/!r->prefix_hit_counted);
    outstanding_ += r->prefilled - attach.hit_tokens;
    r->prefix_hit_counted = true;
    r->prefix_attached = true;
    r->prefix_filled = attach.hit_tokens;
    r->filling_prefix = attach.is_filler;
    r->prefilled = attach.hit_tokens;
}

std::int64_t
Scheduler::schedule_prefill(Request* r, std::int64_t budget)
{
    std::int64_t chunk = std::min(r->prefill_remaining(), budget);
    chunk = std::min(chunk, cache_->free_tokens());
    if (chunk <= 0)
        return 0;
    const std::int64_t past = r->prefix_filled + r->kv.num_tokens();

    // Split the chunk between the shared prefix entry (filler only) and
    // this request's private blocks.
    std::int64_t to_prefix = 0;
    if (r->filling_prefix) {
        const std::int64_t target =
            std::min(r->spec.prefix_tokens, r->prefill_target - 1);
        to_prefix = std::clamp<std::int64_t>(target - r->prefix_filled, 0,
                                             chunk);
    }
    if (to_prefix > 0 &&
        !cache_->try_append_prefix(r->spec.prefix_id, to_prefix)) {
        return 0;
    }
    const std::int64_t to_private = chunk - to_prefix;
    if (to_private > 0 && !cache_->try_append(r->kv, to_private)) {
        if (to_prefix == 0)
            return 0;
        chunk = to_prefix;  // schedule just the shared part this step
    }
    r->prefix_filled += to_prefix;
    plan_.push({r, chunk, past, true});
    publish(r, obs::RequestPhase::kPrefillChunk, sched_now_, chunk);
    return chunk;
}

void
Scheduler::on_step_complete(double now, const BatchPlan& plan,
                            std::vector<Request*>* finished)
{
    SP_ASSERT(finished != nullptr);
    const std::int64_t k = opts_.decode_tokens_per_step;
    if (group_.complete) {
        // Every member decoded k tokens, so by the next step each past has
        // grown by k: every chunk's pairs grow by k·k and its doubled KV
        // read by 2k.
        const std::int64_t tokens = group_.work.decodes.tokens;
        ++group_.epoch;
        // (shift + k) mod bs: shift and k mod bs are both below bs, so one
        // subtract reduces their sum.
        group_.shift += k_rem_;
        if (group_.shift >= std::ssize(group_.classes))
            group_.shift -= std::ssize(group_.classes);
        outstanding_ -= tokens;
        group_.work.decodes.pairs += k * tokens;
        group_.work.decodes.read2 += 2 * tokens;
    }
    const std::size_t finished_before = finished->size();
    for (const auto& c : plan.chunks) {
        Request* r = c.request;
        outstanding_ -= c.new_tokens;
        if (c.is_prefill) {
            r->prefilled += c.new_tokens;
            SP_ASSERT(r->prefilled <= r->prefill_target,
                      "prefill overshoot");
            if (!r->prefill_done())
                continue;
            // The step that completes prefill also samples the next output
            // token (vLLM semantics): the first token for fresh requests,
            // the resumption token after a recompute preemption.
            std::erase(prefilling_, r);
            r->state = RequestState::kDecode;
            r->decoded += 1;
            --outstanding_;
            if (r->first_token < 0.0) {
                r->first_token = now;
                publish(r, obs::RequestPhase::kFirstToken, now);
            }
        } else {
            r->decoded += c.new_tokens;
        }
        if (r->done()) {
            r->state = RequestState::kFinished;
            r->finished = now;
            retire(r);
            finished->push_back(r);
            publish(r, obs::RequestPhase::kFinish, now,
                    r->spec.output_tokens);
        } else if (group_.complete) {
            join(r);
        }
    }
    if (!group_.complete) {
        // After a budget-clipped step every surviving decoder joins, in
        // one order-preserving pass that also drops the finished.
        std::erase_if(running_, [this](Request* r) {
            if (r->state == RequestState::kDecode)
                join(r);
            return r->state == RequestState::kFinished;
        });
        group_.complete = true;
    } else if (finished->size() > finished_before) {
        // Drop the finished by admission stamp: both lists in admission
        // order, one pass compacts the tail from the first finisher on.
        leaving_.assign(finished->begin() +
                            static_cast<std::ptrdiff_t>(finished_before),
                        finished->end());
        std::sort(leaving_.begin(), leaving_.end(),
                  [](const Request* a, const Request* b) {
                      return a->admitted < b->admitted;
                  });
        auto out = find_admitted(running_, leaving_.front());
        auto next = leaving_.cbegin();
        for (auto in = out; in != running_.end(); ++in) {
            if (next != leaving_.cend() && *in == *next)
                ++next;
            else
                *out++ = *in;
        }
        running_.erase(out, running_.end());
    }
    SP_DEBUG_ASSERT(consistent(), "decode group drifted from its members");
}

void
Scheduler::sync(Request* r)
{
    SP_DEBUG_ASSERT(r->synced_epoch >= 0 && r->synced_epoch <= group_.epoch);
    const std::int64_t tokens =
        (group_.epoch - r->synced_epoch) * opts_.decode_tokens_per_step;
    r->synced_epoch = group_.epoch;
    if (tokens > 0) {
        r->decoded += tokens;
        cache_->credit(r->kv, tokens);
    }
}

std::int64_t
Scheduler::residue_class(std::int64_t kv_tokens) const
{
    const std::int64_t bs = std::ssize(group_.classes);
    const std::int64_t c = kv_tokens % bs - group_.shift;
    return c < 0 ? c + bs : c;
}

void
Scheduler::join(Request* r)
{
    const std::int64_t k = opts_.decode_tokens_per_step;
    r->synced_epoch = group_.epoch;
    ++group_.classes[residue_class(r->kv.num_tokens())];
    group_.work.add(k, r->prefix_filled + r->kv.num_tokens(),
                    /*is_prefill=*/false);
    const std::int64_t left = r->spec.output_tokens - r->decoded;
    group_.heap.push_back({group_.epoch + (left + k - 1) / k, r->admitted, r});
    sift(group_.heap.size() - 1);
}

void
Scheduler::leave(const Request* r, std::int64_t kv_tokens)
{
    --group_.classes[residue_class(kv_tokens)];
    group_.work.remove(opts_.decode_tokens_per_step,
                       r->prefix_filled + kv_tokens, /*is_prefill=*/false);
}

void
Scheduler::dissolve()
{
    for (const Member& m : group_.heap) {
        sync(m.request);
        m.request->synced_epoch = -1;
        m.request->heap_slot = -1;
    }
    group_.heap.clear();
    std::fill(group_.classes.begin(), group_.classes.end(), 0);
    group_.work = {};
    group_.complete = false;
}

std::int64_t
Scheduler::group_blocks() const
{
    // A member of class c sits at KV residue s = (c + epoch·k) mod bs.
    // Appending k tokens from s takes ⌊k/bs⌋ blocks, plus one more when s
    // is 0 or above bs - (k mod bs): the k mod bs residues (bs - j) mod
    // bs, j < k mod bs.
    // Walk c = (−j − shift) mod bs down from (−shift) mod bs, wrapping
    // from 0 to bs − 1 (0 ≤ shift < bs, so one subtract per step).
    const std::int64_t bs = std::ssize(group_.classes);
    std::int64_t blocks = group_.work.decodes.seqs * k_blocks_;
    std::int64_t c = group_.shift == 0 ? 0 : bs - group_.shift;
    for (std::int64_t j = 0; j < k_rem_; ++j) {
        blocks += group_.classes[static_cast<std::size_t>(c)];
        c = c == 0 ? bs - 1 : c - 1;
    }
    return blocks;
}

double
Scheduler::earliest_waiting_arrival() const
{
    double earliest = std::numeric_limits<double>::infinity();
    for (const Request* r : waiting_)
        earliest = std::min(earliest, r->spec.arrival);
    return earliest;
}

bool
Scheduler::consistent() const
{
    const std::int64_t k = opts_.decode_tokens_per_step;
    const std::int64_t bs = std::ssize(group_.classes);
    parallel::BatchWork next;  // the members' next-step sums
    std::vector<std::int64_t>& scratch = check_scratch_;  // no allocation
    scratch.assign(group_.classes.size(), 0);             // once grown
    std::int64_t owed = 0;
    std::int64_t blocks = 0;
    std::size_t prefilled = 0, members = 0, prefills = 0;
    bool ok = true;
    const auto visit = [&](const Request* r, std::int64_t lag) {
        const std::int64_t tokens = r->kv.num_tokens() + lag;
        owed += owed_tokens(r) - lag;
        blocks += cache_->blocks_for_tokens(tokens);
        ok = ok && (r->spec.deadline <= 0.0 ||
                    r->spec.deadline >= deadline_floor_);
    };
    for (const Request* r : waiting_) {
        visit(r, 0);
        ok = ok && r->state == RequestState::kWaiting && r->heap_slot == -1;
        prefilled += r->prefill_done();
    }
    for (std::size_t i = 0; i < running_.size(); ++i) {
        const Request* r = running_[i];
        ok = ok && (i == 0 || running_[i - 1]->admitted < r->admitted);
        prefills += r->state == RequestState::kPrefill;
        if (!group_.complete || r->state != RequestState::kDecode) {
            ok = ok && r->synced_epoch == -1 && r->heap_slot == -1;
            visit(r, 0);
            continue;
        }
        ok = ok && r->synced_epoch >= 0 && r->synced_epoch <= group_.epoch;
        const std::int64_t lag = k * (group_.epoch - r->synced_epoch);
        visit(r, lag);
        ++members;
        const std::int64_t tokens = r->kv.num_tokens() + lag;
        next.add(k, r->prefix_filled + tokens, /*is_prefill=*/false);
        ++scratch[static_cast<std::size_t>(
            ((tokens - k * group_.epoch) % bs + bs) % bs)];
        ok = ok && lag >= 0 && r->decoded + lag < r->spec.output_tokens;
    }
    ok = ok && next == group_.work && scratch == group_.classes &&
         prefilled == waiting_prefilled_ && owed == outstanding_;

    // `r`'s index in the admission-ordered running set, or -1 when it is
    // not running.
    const auto index = [&](const Request* r) -> std::ptrdiff_t {
        const auto it = find_admitted(running_, r);
        return it != running_.end() && *it == r ? it - running_.begin() : -1;
    };
    // The heap holds each member once, at its `heap_slot`, due when its
    // last tokens fall.
    ok = ok && group_.heap.size() == members &&
         std::is_heap(group_.heap.begin(), group_.heap.end(),
                      finishes_later);
    scratch.assign(running_.size(), 0);  // members met in the heap
    for (std::size_t slot = 0; slot < group_.heap.size(); ++slot) {
        const Member& m = group_.heap[slot];
        const Request* r = m.request;
        const std::ptrdiff_t i = index(r);
        if (!ok || i < 0 || scratch[static_cast<std::size_t>(i)]++ > 0)
            return false;  // read no request that is not running
        const std::int64_t left = r->spec.output_tokens - r->decoded -
                                  k * (group_.epoch - r->synced_epoch);
        ok = r->state == RequestState::kDecode &&
             r->heap_slot == static_cast<std::int32_t>(slot) &&
             m.admitted == r->admitted &&
             m.finish == group_.epoch + (left + k - 1) / k;
    }
    // The prefill list holds each running prefill once, by descending
    // class and in admission order within one.
    ok = ok && prefilling_.size() == prefills;
    for (std::size_t i = 0; ok && i < prefilling_.size(); ++i) {
        const Request* r = prefilling_[i];
        ok = index(r) >= 0 && r->state == RequestState::kPrefill;
        if (ok && i > 0) {
            const Request* p = prefilling_[i - 1];
            ok = p->spec.priority > r->spec.priority ||
                 (p->spec.priority == r->spec.priority &&
                  p->admitted < r->admitted);
        }
    }
    return ok && cache_->accounting_consistent(blocks);
}

} // namespace shiftpar::engine
