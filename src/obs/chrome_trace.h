/**
 * @file
 * Chrome-trace (Perfetto-loadable) JSON exporter for simulation runs.
 *
 * Renders the event bus into the Trace Event Format understood by
 * `ui.perfetto.dev` and `chrome://tracing`:
 *
 *  - each engine becomes a *process* (pid = engine id) named from its
 *    `EngineMeta` label, with four threads: "steps" (complete events, one
 *    per iteration, named "base step"/"shift step" so the two modes color
 *    differently), "mode" (shift/unshift instants), "cache" (instants
 *    such as prefix evictions), and "fault" (fail/recover/straggle/drain
 *    transitions from injected faults);
 *  - counter tracks per engine: batched tokens, execution mode (0 = base,
 *    1 = shift), KV occupancy, queue depth, and outstanding tokens;
 *  - requests become async (nestable) spans on a dedicated "requests"
 *    process, begun at submit and ended at finish/cancel (or at loss,
 *    when a faulted request exhausts its retries), with instant
 *    markers for first-schedule, prefill chunks, preemptions, resumes, and
 *    the first token — so a whole run's request lifecycles, including
 *    cross-engine migrations in disaggregated deployments, line up against
 *    the engines' step tracks on one timeline.
 *
 * Timestamps are microseconds of simulated time.
 */

#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/trace.h"

namespace shiftpar::obs {

/**
 * Buffers bus events and serializes them as Chrome trace JSON.
 *
 * Thread-safe: every handler and accessor locks one internal mutex, so
 * engines running on parallel sweep workers can share a writer. Note that
 * the *order* of buffered events then depends on thread interleaving; the
 * sweep runner serializes traced sweeps (see bench/common/sweep.h) so an
 * exported trace stays deterministic.
 */
class ChromeTraceWriter : public TraceSink
{
  public:
    ChromeTraceWriter() = default;

    void on_request(const RequestEvent& e) override;
    void on_step(const StepEvent& e) override;
    void on_mode_switch(const ModeSwitchEvent& e) override;
    void on_gauge(const GaugeEvent& e) override;
    void on_fault(const FaultEvent& e) override;
    void on_instant(EngineId engine, double t,
                    const std::string& name) override;

    /** Serialize the full trace document to `os`. */
    void write(std::ostream& os) const;

    /** Serialize to `path`; fatal() when the file cannot be opened. */
    void write_file(const std::string& path) const;

    /** @return buffered trace-event count (metadata excluded). */
    std::size_t
    num_events() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return events_.size();
    }

  protected:
    void on_engine_meta(const EngineMeta& meta) override;

    /**
     * Label prefix applied to engines registered from now on (e.g. the
     * strategy name when several deployments share one trace). Reached
     * through the base `set_run_label`, which resets span counters first.
     */
    void
    on_run_label(const std::string& label) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        run_label_ = label;
        // Each run gets a fresh "requests" process so async ids from
        // overlapping simulated timelines never collide.
        requests_process_made_ = false;
    }

  private:
    /** One pre-rendered trace event (args already JSON-encoded). */
    struct Event
    {
        char ph = 'i';            ///< Trace Event Format phase code
        int pid = 0;
        int tid = 0;
        double ts = 0.0;          ///< microseconds
        double dur = 0.0;         ///< "X" events only
        std::string name;
        std::string cat;
        std::string id;           ///< async events only
        std::string args_json;    ///< rendered {"k":v,...} or empty
    };

    /** Append a counter sample ("C" event). Caller holds `mutex_`. */
    void counter(int pid, double t, const std::string& name,
                 const std::string& series, double value);

    /**
     * Ensure the synthetic "requests" process exists and return its pid.
     * Caller holds `mutex_`.
     */
    int requests_pid();

    static double us(double seconds) { return seconds * 1e6; }

    mutable std::mutex mutex_;
    std::string run_label_;
    std::vector<Event> events_;  // shiftlint-guarded(mutex_)

    struct Process
    {
        int pid = 0;
        std::string name;
        std::vector<std::string> threads;  ///< tid -> name
    };
    std::vector<Process> processes_;  // shiftlint-guarded(mutex_)
    bool requests_process_made_ = false;
    int requests_pid_ = 0;

    /**
     * Async request spans currently open (by trace id). A retried request
     * re-enters `Engine::submit`, which republishes kSubmit; rendering that
     * as a second 'b' would corrupt the span nesting, so repeats become
     * in-span markers and kLost closes the span like a cancellation.
     */
    std::unordered_set<std::string> open_requests_;
};

} // namespace shiftpar::obs
