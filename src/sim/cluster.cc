#include "sim/cluster.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace shiftpar::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

void
Component::notify_ready_changed()
{
    if (cluster_ != nullptr)
        cluster_->notify_ready(this);
}

Component::~Component()
{
    // Sever the link from this side: the owning cluster must never read
    // this component again (its registry entry goes null). Without this,
    // a cluster declared before its components would touch their dead
    // memory in its own destructor.
    if (cluster_ != nullptr)
        cluster_->detach(this);
}

Cluster::~Cluster()
{
    // Sever the link from this side: a later notify_ready_changed() from
    // a surviving component becomes a no-op instead of a write through a
    // dangling pointer. Every non-null entry still points here — add()
    // and ~Component() remove a component from its previous cluster, so
    // no stale registrations survive to be read after their death.
    for (Component* c : components_) {
        if (c != nullptr)
            c->cluster_ = nullptr;
    }
}

void
Cluster::add(Component* c)
{
    SP_ASSERT(c != nullptr);
    if (c->cluster_ != nullptr)
        c->cluster_->detach(c);  // keep the one-cluster invariant
    c->cluster_ = this;
    c->registration_index_ = components_.size();
    components_.push_back(c);
    slots_.emplace_back();
}

void
Cluster::detach(Component* c)
{
    const std::size_t idx = c->registration_index_;
    if (idx >= components_.size() || components_[idx] != c)
        return;  // an unregistered copy, or a slot since re-assigned
    components_[idx] = nullptr;
    Slot& s = slots_[idx];
    ++s.stamp;  // stales any heap entry; clean/compact drop it unread
    s.entry_live = false;
    if (s.stalled) {
        s.stalled = false;
        SP_ASSERT(stalled_count_ > 0);
        --stalled_count_;
    }
}

EventId
Cluster::post(double t, std::function<void()> fire)
{
    SP_DEBUG_ASSERT(t >= now_, "event posted into the past: t=", t,
                    " but cluster clock is ", now_);
    return queue_.post(t, std::move(fire));
}

bool
Cluster::cancel_event(EventId id)
{
    return queue_.cancel(id);
}

void
Cluster::set_progress_hook(std::function<void(double)> hook)
{
    hook_ = std::move(hook);
}

void
Cluster::push_ready(std::size_t idx, double t)
{
    Slot& s = slots_[idx];
    ++s.stamp;  // stales any entry this slot still has in the heap
    s.cached = t;
    s.entry_live = true;
    ready_.push_back({t, idx, s.stamp});
    std::push_heap(ready_.begin(), ready_.end(), ReadyLater{});
    ++ready_stats_.pushes;
}

void
Cluster::refresh_ready(std::size_t idx)
{
    const double t = components_[idx]->next_event_time();
    if (t < kInf) {
        push_ready(idx, t);
    } else {
        Slot& s = slots_[idx];
        ++s.stamp;
        s.entry_live = false;
    }
}

void
Cluster::notify_ready(Component* c)
{
    SP_ASSERT(c != nullptr && c->cluster_ == this);
    const std::size_t idx = c->registration_index_;
    Slot& s = slots_[idx];
    if (s.stalled) {
        // An external state change is the unblocking rule 4 waits for.
        s.stalled = false;
        SP_ASSERT(stalled_count_ > 0);
        --stalled_count_;
        // idx stays in stalled_list_; wake_stalled skips it by the flag.
    }
    const double t = c->next_event_time();
    if (s.entry_live) {
        if (t == s.cached)
            return;  // published time still right — the common case
        ++s.stamp;
        s.entry_live = false;
    } else if (t == kInf) {
        return;  // idle before, idle after
    }
    if (t < kInf)
        push_ready(idx, t);
}

void
Cluster::clean_ready_top()
{
    while (!ready_.empty()) {
        const ReadyEntry& e = ready_.front();
        const Slot& s = slots_[e.index];
        if (s.entry_live && s.stamp == e.stamp)
            return;
        std::pop_heap(ready_.begin(), ready_.end(), ReadyLater{});
        ready_.pop_back();
        ++ready_stats_.skips;
    }
}

void
Cluster::rebuild_ready()
{
    ready_.clear();
    for (std::size_t i = 0; i < components_.size(); ++i) {
        if (components_[i] == nullptr)
            continue;  // destroyed or re-registered elsewhere
        Slot& s = slots_[i];
        s.entry_live = false;
        if (s.stalled)
            continue;  // parked by a previous run(); stays parked (rule 4)
        const double t = components_[i]->next_event_time();
        ++s.stamp;
        if (t < kInf) {
            s.cached = t;
            s.entry_live = true;
            ready_.push_back({t, i, s.stamp});
            ++ready_stats_.pushes;
        }
    }
    std::make_heap(ready_.begin(), ready_.end(), ReadyLater{});
    ++ready_stats_.rebuilds;
}

void
Cluster::compact_ready()
{
    // Stale entries surface lazily, but a pathological notify pattern
    // could outrun the cleaning; cap the heap at O(components).
    ready_.erase(std::remove_if(ready_.begin(), ready_.end(),
                                [this](const ReadyEntry& e) {
                                    const Slot& s = slots_[e.index];
                                    return !s.entry_live ||
                                           s.stamp != e.stamp;
                                }),
                 ready_.end());
    std::make_heap(ready_.begin(), ready_.end(), ReadyLater{});
    ++ready_stats_.rebuilds;
}

void
Cluster::park(std::size_t idx)
{
    Slot& s = slots_[idx];
    SP_DEBUG_ASSERT(!s.stalled, "component ", idx, " parked twice");
    s.stalled = true;
    ++stalled_count_;
    stalled_list_.push_back(idx);
}

void
Cluster::wake_stalled()
{
    // Republish every parked component: anything that just happened may
    // have unblocked it (a routed arrival, a freed link, a migration).
    // Each wake re-reads one ready time — the targeted replacement for
    // the old blanket `std::fill` re-arm over the whole fleet.
    for (const std::size_t idx : stalled_list_) {
        Slot& s = slots_[idx];
        if (!s.stalled)
            continue;  // already unparked by a notify
        s.stalled = false;
        SP_ASSERT(stalled_count_ > 0);
        --stalled_count_;
        refresh_ready(idx);
    }
    stalled_list_.clear();
}

#ifndef NDEBUG
void
Cluster::verify_ready_cache() const
{
    // Debug builds keep the old O(n)-per-iteration fleet poll as an
    // oracle: a mutation that skipped notify_ready_changed() shows up
    // here instead of as a silently different replay.
    for (std::size_t i = 0; i < components_.size(); ++i) {
        if (components_[i] == nullptr)
            continue;
        const Slot& s = slots_[i];
        if (s.stalled)
            continue;
        const double t = components_[i]->next_event_time();
        if (s.entry_live) {
            SP_DEBUG_ASSERT(
                t == s.cached, "ready cache stale for component ", i,
                " (", components_[i]->kind(), "): cached ", s.cached,
                " but next_event_time() is ", t,
                " — a mutation skipped notify_ready_changed()");
        } else {
            SP_DEBUG_ASSERT(
                t == kInf, "ready cache stale for component ", i, " (",
                components_[i]->kind(),
                "): cached idle but next_event_time() is ", t,
                " — a mutation skipped notify_ready_changed()");
        }
    }
}
#endif

bool
Cluster::run()
{
    util::Stopwatch run_watch;
    rebuild_ready();

    for (;;) {
        clean_ready_top();
#ifndef NDEBUG
        verify_ready_cache();
#endif
        // Earliest ready component (stalled ones wait for an unblocking
        // event); registration order breaks ties inside the heap key.
        const double tc = ready_.empty() ? kInf : ready_.front().t;
        const double te = queue_.next_time();
        if (te == kInf && tc == kInf)
            break;  // quiescent (possibly with stalled components)

        if (te <= tc) {
            // Events win ties: an arrival at t precedes a step starting
            // at t (determinism rule 2).
            SP_DEBUG_ASSERT(te >= now_, "event time ", te,
                            " behind the cluster clock ", now_);
            now_ = std::max(now_, te);
            if (profile_) {
                util::Stopwatch watch;
                queue_.fire_next();
                profile_->event_wall_s += watch.elapsed_s();
                ++profile_->events_fired;
            } else {
                queue_.fire_next();
            }
        } else {
            const std::size_t idx = ready_.front().index;
            Component* comp = components_[idx];
            std::pop_heap(ready_.begin(), ready_.end(), ReadyLater{});
            ready_.pop_back();
            slots_[idx].entry_live = false;
            ++ready_stats_.pops;
            // tc may lag now_: a component woken after an event still
            // reports a ready time from before the clock moved. The max()
            // pins the clock; the progress hook never sees it move
            // backwards (asserted by
            // ClockIsMonotoneAcrossEventsAndComponents).
            now_ = std::max(now_, tc);
            bool progressed;
            if (profile_) {
                util::Stopwatch watch;
                progressed = comp->advance_to(tc);
                auto& stats = profile_->components[comp->kind()];
                stats.wall_s += watch.elapsed_s();
                if (progressed)
                    ++stats.advances;
                else
                    ++stats.stalls;
            } else {
                progressed = comp->advance_to(tc);
            }
            if (!progressed) {
                // Blocked (e.g. KV-full engine with nothing running):
                // park it until any event or foreign progress could have
                // changed its inputs.
                park(idx);
                continue;
            }
            refresh_ready(idx);
        }
        // Anything that just happened may unblock a parked component;
        // republish parked ready times (no-op when nothing is parked —
        // the old code refilled the whole stalled vector here).
        if (!stalled_list_.empty())
            wake_stalled();
        if (hook_)
            hook_(now_);
        if (ready_.size() > 2 * components_.size() + 64)
            compact_ready();
    }
    if (profile_) {
        profile_->run_wall_s += run_watch.elapsed_s();
        // Fold queue/ready-op deltas since the last fold, so posts made
        // before run() count toward this run but a second run() on the
        // same cluster never double-counts them.
        const EventQueue::Stats& heap = queue_.stats();
        profile_->heap_pushes += heap.pushes - heap_folded_.pushes;
        profile_->heap_pops += heap.pops - heap_folded_.pops;
        profile_->heap_cancels += heap.cancels - heap_folded_.cancels;
        profile_->queue_high_water =
            std::max(profile_->queue_high_water, heap.high_water);
        heap_folded_ = heap;
        profile_->ready_pushes +=
            ready_stats_.pushes - ready_folded_.pushes;
        profile_->ready_pops += ready_stats_.pops - ready_folded_.pops;
        profile_->ready_skips += ready_stats_.skips - ready_folded_.skips;
        profile_->ready_rebuilds +=
            ready_stats_.rebuilds - ready_folded_.rebuilds;
        ready_folded_ = ready_stats_;
    }
    return stalled_count_ == 0;
}

} // namespace shiftpar::sim
