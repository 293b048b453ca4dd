#include "engine/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace shiftpar::engine {

namespace {

/** @return the tokens `r` still owes: prefill plus output. */
std::int64_t
owed_tokens(const Request* r)
{
    return r->prefill_remaining() + (r->spec.output_tokens - r->decoded);
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
    run_.residues.assign(static_cast<std::size_t>(cache_->block_size()), 0);
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
    materialize();
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
Scheduler::preempt_one(const Request* keep, BatchPlan* plan)
{
    // vLLM preempts the most recently admitted sequence first so the oldest
    // requests keep their progress (FCFS fairness under memory pressure).
    // Prefer victims that are not already part of this step's plan; when
    // none exists, evict a planned one, retract its chunk, and report the
    // retracted tokens so the caller can refund its budget.
    auto in_plan = [&](const Request* r) {
        return std::any_of(plan->chunks.begin(), plan->chunks.end(),
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
            const std::int64_t retracted = plan->retract(victim);
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

BatchPlan
Scheduler::schedule(double now)
{
    materialize();
    BatchPlan plan;
    // Every running sequence plus one admission, so a typical step never
    // re-grows the plan.
    plan.chunks.reserve(running_.size() + 1);
    std::int64_t budget = opts_.max_batched_tokens;
    sched_now_ = now;  // stamps preemption/lifecycle events this call

    // ---- Migrated-request admission ---------------------------------------
    // Requests arriving already prefilled (disaggregated decode workers)
    // materialize their transferred KV without compute; doing this before
    // the decode pass lets them decode in this very step. The scan runs
    // only while such a request waits.
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
        r->state = RequestState::kDecode;
        if (r->first_scheduled < 0.0) {
            r->first_scheduled = now;
            publish(r, obs::RequestPhase::kFirstSchedule, now);
        } else {
            publish(r, obs::RequestPhase::kResume, now);
        }
        running_.push_back(r);
    }

    // ---- Decode pass: one token per running sequence ---------------------
    // Iterate over a snapshot index range because preemption mutates
    // running_ behind the cursor.
    for (std::size_t i = 0; i < running_.size() && budget > 0;) {
        Request* r = running_[i];
        if (r->state != RequestState::kDecode) {
            ++i;
            continue;
        }
        const std::int64_t past = r->prefix_filled + r->kv.num_tokens();
        // Cap the chunk at the remaining budget: with multi-token decode
        // steps (speculative decoding) an uncapped chunk could push
        // the batched tokens past max_batched_tokens, distorting the
        // ShiftController's Alg. 2 decision near the threshold.
        const std::int64_t tokens =
            std::min({opts_.decode_tokens_per_step,
                      r->spec.output_tokens - r->decoded, budget});
        SP_ASSERT(tokens >= 1);
        while (!cache_->try_append(r->kv, tokens)) {
            const std::int64_t retracted = preempt_one(r, &plan);
            if (retracted < 0) {
                fatal("KV cache cannot hold a single decoding request; "
                      "increase memory or reduce context");
            }
            // A planned victim's chunk was retracted: refund its tokens so
            // the freed budget stays spendable this step.
            budget += retracted;
            // Preemption may have removed requests before the cursor.
            const auto pos =
                std::find(running_.begin(), running_.end(), r);
            i = static_cast<std::size_t>(pos - running_.begin());
        }
        plan.push({r, tokens, past, false});
        budget -= tokens;
        ++i;
    }

    // ---- Prefill pass ------------------------------------------------------
    // Continuing prefills and arrived waiting requests compete for the
    // chunked-prefill budget in one priority-ordered pass: a freshly
    // arrived latency-class request takes budget ahead of an in-flight
    // batch-class prefill. Within a class, continuing work precedes new
    // admissions and each list keeps its own order. waiting_ is already
    // sorted (descending class, FCFS within), so the pass merges it with
    // the class-sorted running prefills instead of sorting the queue.
    prefilling_.clear();
    for (Request* r : running_) {
        if (r->state == RequestState::kPrefill && !r->prefill_done())
            prefilling_.push_back(r);
    }
    std::stable_sort(prefilling_.begin(), prefilling_.end(),
                     [](const Request* a, const Request* b) {
                         return a->spec.priority > b->spec.priority;
                     });

    auto next = prefilling_.begin();
    auto w = waiting_.begin();
    // Admission stops for good once it is blocked or running_ is full;
    // the remaining running prefills are still served.
    bool admitting = true;
    while (budget > 0) {
        while (admitting && w != waiting_.end() &&
               ((*w)->spec.arrival > now || (*w)->prefill_done()))
            ++w;
        admitting = admitting && w != waiting_.end();
        if (next != prefilling_.end() &&
            (!admitting || (*next)->spec.priority >= (*w)->spec.priority)) {
            budget -= schedule_prefill(*next++, budget, &plan);
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
        const std::int64_t scheduled = schedule_prefill(r, budget, &plan);
        if (scheduled == 0) {
            // Keep intra-class FCFS: later (same or lower class) waiting
            // requests must not jump a blocked one.
            admitting = false;
            continue;
        }
        w = erase_waiting(w);
        r->state = RequestState::kPrefill;
        if (r->first_scheduled < 0.0) {
            r->first_scheduled = now;
            publish(r, obs::RequestPhase::kFirstSchedule, now);
        } else {
            publish(r, obs::RequestPhase::kResume, now);
        }
        running_.push_back(r);
        budget -= scheduled;
    }

    // Livelock escape: if the cache is packed with half-prefilled requests
    // so that nothing could be scheduled, preempt the newest and retry so
    // the oldest prefill can finish (recompute preemption, vLLM-style).
    if (plan.empty() && running_.size() > 1 &&
        preempt_one(nullptr, &plan) >= 0)
        return schedule(now);

    return plan;
}

void
Scheduler::cancel(Request* r)
{
    SP_ASSERT(r != nullptr);
    SP_ASSERT(r->state == RequestState::kWaiting ||
                  r->state == RequestState::kPrefill ||
                  r->state == RequestState::kDecode,
              "cancel of a request that is neither waiting nor running");
    materialize();
    if (r->state == RequestState::kWaiting) {
        const auto it = std::find(waiting_.begin(), waiting_.end(), r);
        SP_ASSERT(it != waiting_.end(), "waiting request not in queue");
        erase_waiting(it);
    } else {
        const auto it = std::find(running_.begin(), running_.end(), r);
        SP_ASSERT(it != running_.end(), "running request not in queue");
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
    materialize();
    std::vector<Request*> taken;
    double floor = std::numeric_limits<double>::infinity();
    const auto take = [&](Request* r) {
        if (!pred(r)) {
            if (r->spec.deadline > 0.0)
                floor = std::min(floor, r->spec.deadline);
            return false;
        }
        retire(r);
        taken.push_back(r);
        return true;
    };
    auto kept = running_.begin();
    for (Request* r : running_)
        if (!take(r))
            *kept++ = r;
    running_.erase(kept, running_.end());
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
        // No materialize(): a steady run keeps the waiting queue empty,
        // so no run is open when there is a victim.
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
    r->prefix_hit = attach.hit_tokens;
    r->prefix_filled = attach.hit_tokens;
    r->filling_prefix = attach.is_filler;
    r->prefilled = attach.hit_tokens;
}

std::int64_t
Scheduler::schedule_prefill(Request* r, std::int64_t budget, BatchPlan* plan)
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
    plan->push({r, chunk, past, true});
    publish(r, obs::RequestPhase::kPrefillChunk, sched_now_, chunk);
    return chunk;
}

void
Scheduler::on_step_complete(double now, const BatchPlan& plan,
                            std::vector<Request*>* finished)
{
    SP_ASSERT(finished != nullptr);
    materialize();
    // While the chunks are walked, find out whether the next step may be
    // steady: every running request had a chunk, every one that did not
    // finish is now decoding, none waits, and k tokens each fit the
    // budget. A chunk leaves its request's context at `past + new_tokens`.
    const std::int64_t k = opts_.decode_tokens_per_step;
    const std::int64_t block_size = std::ssize(run_.residues);
    std::fill(run_.residues.begin(), run_.residues.end(), 0);
    bool steady = plan.chunks.size() == running_.size() && waiting_.empty();
    std::int64_t seqs = 0;
    std::int64_t fewest_left = std::numeric_limits<std::int64_t>::max();
    std::int64_t context = 0;
    const std::size_t finished_before = finished->size();
    for (const auto& c : plan.chunks) {
        Request* r = c.request;
        outstanding_ -= c.new_tokens;
        if (c.is_prefill) {
            r->prefilled += c.new_tokens;
            SP_ASSERT(r->prefilled <= r->prefill_target,
                      "prefill overshoot");
            if (!r->prefill_done()) {
                steady = false;
                continue;
            }
            // The step that completes prefill also samples the next output
            // token (vLLM semantics): the first token for fresh requests,
            // the resumption token after a recompute preemption.
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
        } else if (steady) {
            ++seqs;
            // kv.num_tokens() mod block_size, from the block count that
            // already holds ⌈tokens / block_size⌉ (no division).
            const std::int64_t in_last =
                r->kv.num_tokens() - (r->kv.num_blocks() - 1) * block_size;
            ++run_.residues[in_last == block_size ? 0 : in_last];
            fewest_left =
                std::min(fewest_left, r->spec.output_tokens - r->decoded);
            context += c.past + c.new_tokens;
        }
    }
    if (finished->size() > finished_before) {
        // One order-preserving compaction instead of an erase per finish.
        std::erase_if(running_, [](const Request* r) {
            return r->state == RequestState::kFinished;
        });
    }
    // Steady steps end one step before the next request could finish.
    // `work` is the first one's: k tokens per request after `context`.
    steady = steady && seqs > 0 && seqs * k <= opts_.max_batched_tokens;
    run_.limit = steady ? (fewest_left - 1) / k : 0;
    run_.armed = run_.limit >= 1;
    run_.seqs = seqs;
    run_.work.decodes = {.seqs = seqs,
                         .tokens = k * seqs,
                         .pairs = k * context + seqs * (k * (k + 1) / 2),
                         .read2 = 2 * context + k * seqs};
}

std::optional<parallel::BatchWork>
Scheduler::steady_step(double now)
{
    if (!run_.armed || run_.steps == run_.limit || now >= deadline_floor_ ||
        !cache_->try_charge(steady_blocks()))
        return std::nullopt;
    const parallel::BatchWork work = run_.work;
    // Each request decodes k tokens, so by the next step each past has
    // grown by k: every chunk's pairs grow by k·k and its doubled KV
    // read by 2k.
    const std::int64_t k = opts_.decode_tokens_per_step;
    const std::int64_t tokens = k * run_.seqs;
    ++run_.steps;
    outstanding_ -= tokens;
    run_.work.decodes.pairs += k * tokens;
    run_.work.decodes.read2 += 2 * tokens;
    SP_DEBUG_ASSERT(consistent(),
                    "steady run drifted from its running requests");
    return work;
}

std::int64_t
Scheduler::steady_blocks() const
{
    // A request that armed at KV residue r sits at s = (r + steps·k) mod
    // bs. Appending k tokens from s takes ⌊k/bs⌋ blocks, plus one more
    // when s is 0 or above bs - (k mod bs): the k mod bs residues
    // (bs - j) mod bs, j < k mod bs.
    const std::int64_t bs = std::ssize(run_.residues);
    const std::int64_t k = opts_.decode_tokens_per_step;
    const std::int64_t shift = run_.steps * k % bs;
    std::int64_t blocks = run_.seqs * (k / bs);
    for (std::int64_t j = 0; j < k % bs; ++j)
        blocks += run_.residues[(2 * bs - j - shift) % bs];
    return blocks;
}

void
Scheduler::materialize()
{
    if (run_.steps > 0) {
        const std::int64_t tokens = run_.steps * opts_.decode_tokens_per_step;
        for (Request* r : running_) {
            r->decoded += tokens;
            cache_->credit(r->kv, tokens);
        }
    }
    run_.armed = false;
    run_.steps = 0;
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
    parallel::BatchWork next;  // the next steady step's sums
    std::int64_t owed = 0;
    std::int64_t blocks = 0;
    bool ok = true;
    const auto visit = [&](const Request* r, std::int64_t lag) {
        const std::int64_t tokens = r->kv.num_tokens() + lag;
        owed += owed_tokens(r) - lag;
        blocks += cache_->blocks_for_tokens(tokens);
        ok = ok && (r->spec.deadline <= 0.0 ||
                    r->spec.deadline >= deadline_floor_);
        if (run_.armed) {
            next.add(k, r->prefix_filled + tokens, /*is_prefill=*/false);
            ok = ok && r->state == RequestState::kDecode;
        }
    };
    for (const Request* r : waiting_)
        visit(r, 0);
    for (const Request* r : running_)
        visit(r, k * run_.steps);
    if (run_.armed) {
        ok = ok && waiting_.empty() && std::ssize(running_) == run_.seqs &&
             next == run_.work;
    }
    return ok && owed == outstanding_ &&
           cache_->accounting_consistent(blocks);
}

} // namespace shiftpar::engine
