/**
 * @file
 * The `Component` contract of the discrete-event cluster core.
 *
 * A component is anything that owns its own simulated clock and does work
 * in atomic units — an inference engine stepping its scheduler, a fabric
 * link draining transfers. The cluster loop repeatedly asks every
 * component when it could next act (`next_event_time`) and grants the
 * earliest one a single unit of progress (`advance_to`), interleaving
 * component work with queued events (arrivals, KV handoffs, cancels) in
 * global time order.
 *
 * Ready-change contract: the cluster does not re-poll every component per
 * unit of progress — it caches each component's ready time in an indexed
 * heap (see `Cluster::notify_ready`). The cluster itself refreshes the
 * cache around the `advance_to` calls it makes and whenever it wakes a
 * stalled component, so a component whose ready time only changes when it
 * advances needs nothing. Any *other* mutation that can change
 * `next_event_time` — work submitted from an event closure, a fail-stop,
 * a stolen request, an external clock sync — must call
 * `notify_ready_changed()` (or `Cluster::notify_ready`) before the
 * mutating call returns. Debug builds re-poll every component each
 * iteration and abort on a stale cache, so a missed notification cannot
 * silently change replay results.
 */

#pragma once

#include <cstddef>

namespace shiftpar::sim {

class Cluster;

/** One actor on the cluster timeline. */
class Component
{
  public:
    Component() = default;

    /**
     * Registration is identity-bound, not value-bound: a copy starts
     * unregistered, and assignment leaves the target's registration
     * alone. (Copying a registered component into a cluster-owned role
     * requires a fresh `Cluster::add`.)
     */
    Component(const Component&) {}
    Component& operator=(const Component&) { return *this; }

    /** Unregisters from the owning cluster, if any (see cluster.cc). */
    virtual ~Component();

    /**
     * @return a static string naming this component's kind ("engine",
     * "link", ...), the key the cluster self-profiler attributes wall
     * time under. Purely descriptive — never consulted by the loop's
     * scheduling decisions.
     */
    virtual const char* kind() const { return "component"; }

    /**
     * @return the earliest time this component could make progress:
     *  - its current clock, when work is executable now;
     *  - a future instant, when it is idle until a known event (e.g. the
     *    earliest waiting arrival);
     *  - +inf when it has nothing to do.
     *
     * Must be a pure function of component state (identical consecutive
     * calls return identical values): the cluster caches it to pick the
     * next actor and to detect quiescence.
     */
    virtual double next_event_time() const = 0;

    /**
     * Perform at most ONE unit of progress, with clearance up to time `t`
     * (`t >= next_event_time()`); the unit may overshoot `t` — units are
     * atomic, exactly like an engine step that straddles an arrival.
     *
     * @return true when progress was made (a step executed, idle time
     * skipped). Returning false declares the component *stalled*: it has
     * work but cannot proceed until some other event changes its state
     * (the cluster will not re-poll it until one fires). A component that
     * returns true must have advanced its own clock or changed state —
     * otherwise the cluster loop cannot terminate.
     */
    virtual bool advance_to(double t) = 0;

  protected:
    /**
     * Publish that this component's `next_event_time` may have changed
     * (see the ready-change contract above). No-op when the component is
     * not registered with a cluster (an engine being set up before its
     * replay), so components call it unconditionally. Must not be called
     * from inside this component's
     * own `advance_to` — the cluster refreshes the advanced component
     * itself (enforced by shiftlint's sim-contract check).
     */
    void notify_ready_changed();

  private:
    friend class Cluster;
    Cluster* cluster_ = nullptr;        ///< owner (null when unregistered)
    std::size_t registration_index_ = 0;
};

} // namespace shiftpar::sim
