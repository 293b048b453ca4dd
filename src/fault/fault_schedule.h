/**
 * @file
 * Fault-injection schedules for the discrete-event cluster core.
 *
 * A `FaultSchedule` is a declarative list of faults to inject into a
 * deployment replay: fail-stop replica failures (with optional recovery),
 * per-step straggler slowdowns and graceful drains. It is parsed from a
 * spec string by `parse_fault_spec` (or built programmatically) and
 * *materialized* against a concrete deployment — checking every engine
 * index and expanding stochastic MTBF clauses into a seed-deterministic
 * event list — so the same spec plus seed always replays the same
 * faults, byte for byte, regardless of `--jobs` or host.
 *
 * Spec grammar (clauses separated by ';', keys by ','):
 *
 *   fail:engine=1,at=10[,recover=25]      fail-stop engine 1 at t=10s,
 *                                         rejoin (empty KV) at t=25s
 *   straggle:engine=0,at=5,until=15,slow=2.5
 *                                         engine 0 runs every step 2.5x
 *                                         slower during [5,15)
 *   mtbf:mean=60,mttr=5,duration=300[,seed=1]
 *                                         stochastic fail/recover: each
 *                                         engine independently fails with
 *                                         exponential inter-failure times
 *                                         (mean 60s) and recovers 5s
 *                                         later, over [0,300)
 *   drain:engine=1,at=10[,resume=30]      gracefully drain engine 1 at
 *                                         t=10s: admission stops, queued
 *                                         requests are handed back to the
 *                                         router, running ones finish in
 *                                         place; admission resumes at
 *                                         t=30s (never, when omitted)
 *
 * Malformed specs `fatal()` naming the offending token and the failing
 * clause by 1-based index and text — a typo'd fault experiment must never
 * run silently as a healthy-cluster replay. Blank clauses (trailing or
 * doubled ';', stray whitespace) are tolerated and skipped.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace shiftpar::fault {

/** What kind of fault one schedule entry injects. */
enum class FaultKind
{
    kFail,      ///< fail-stop at `at`; optional recovery at `recover_at`
    kStraggle,  ///< per-step slowdown by `factor` during [at, recover_at)
    kDrain,     ///< graceful drain at `at`; admission resumes at `recover_at`
};

/** One scheduled fault against one engine. */
struct FaultEvent
{
    FaultKind kind = FaultKind::kFail;

    /** Target engine index within the deployment. */
    int engine = 0;

    /** Fault start time, seconds. */
    double at = 0.0;

    /**
     * Recovery/restore time, seconds; +inf for a permanent fail-stop.
     * Always finite for kStraggle.
     */
    double recover_at = 0.0;

    /** Slowdown factor (> 1) for kStraggle; unused otherwise. */
    double factor = 1.0;
};

/** Stochastic fail/recover process expanded at materialization. */
struct MtbfSpec
{
    double mean = 0.0;      ///< mean time between failures per engine, s
    double mttr = 0.0;      ///< time to recovery after each failure, s
    double duration = 0.0;  ///< failures generated over [0, duration)
    std::uint64_t seed = 1; ///< RNG seed (per-engine streams derived)
};

/** A full fault-injection plan (explicit events + stochastic clauses). */
struct FaultSchedule
{
    std::vector<FaultEvent> events;
    std::vector<MtbfSpec> mtbf;

    /** @return true when the schedule injects nothing. */
    bool empty() const { return events.empty() && mtbf.empty(); }

    /**
     * Resolve the schedule against a deployment of `num_engines`
     * replicas: expand every MTBF clause into explicit fail events with
     * seed-deterministic times. fatal() on an engine index outside
     * [0, num_engines).
     *
     * @return events sorted by (time, insertion order).
     */
    std::vector<FaultEvent> materialize(int num_engines) const;
};

/**
 * Parse a fault spec (see file comment for the grammar). An empty
 * spec returns an empty schedule; anything malformed — unknown clause or
 * key, missing required key, unparsable or out-of-range value —
 * `fatal()`s naming the offending token.
 */
FaultSchedule parse_fault_spec(const std::string& spec);

/** Counters of one fault-injected replay (reported per run). */
struct FaultStats
{
    std::int64_t failures = 0;    ///< fail-stop transitions applied
    std::int64_t recoveries = 0;  ///< engines that rejoined
    std::int64_t straggles = 0;   ///< straggle windows applied
    std::int64_t dropped = 0;     ///< in-flight requests dropped by fails
    std::int64_t retries = 0;     ///< re-route attempts scheduled
    std::int64_t lost = 0;        ///< requests dropped permanently
    std::int64_t shed = 0;        ///< arrivals rejected while degraded
};

} // namespace shiftpar::fault
