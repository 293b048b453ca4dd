/**
 * @file
 * Regenerates the committed golden trace for the tracestat tests.
 *
 * Three deliberately small runs share one `ChromeTraceWriter`:
 *
 *  1. "shift": a Shift deployment under a burst, so the trace carries
 *     mode instants and decode windows overlapping shift intervals;
 *  2. "faulted-dp": a DP deployment with a fail/recover mid-replay, so
 *     it carries retries, resubmits, and dropped-then-retried spans;
 *  3. "overload-dp": a DP deployment swamped by a t=0 wave with
 *     deadlines, a client-cancel stream, hedged retries, and a graceful
 *     drain window, so it carries expired/cancelled closes and
 *     hedged/hedge_won/hedge_lost/drained markers.
 *
 * Usage: tracestat_make_golden <trace-out.json>
 *
 * After regenerating (only needed when the trace writer's format
 * changes), refresh the expected report/CSV next to it:
 *
 *   tracestat tests/data/tracestat_golden.trace.json \
 *       > tests/data/tracestat_golden.expected.txt
 *   tracestat tests/data/tracestat_golden.trace.json \
 *       --csv tests/data/tracestat_golden.expected.csv
 */

#include <cstdio>

#include "core/deployment.h"
#include "model/presets.h"
#include "obs/chrome_trace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/lifecycle.h"
#include "workload/synthetic.h"

int
main(int argc, char** argv)
{
    using namespace shiftpar;
    if (argc != 2)
        fatal("usage: tracestat_make_golden <trace-out.json>");

    obs::ChromeTraceWriter trace;

    {
        core::Deployment d;
        d.model = model::qwen_32b();
        d.strategy = parallel::Strategy::kShift;
        d.trace = &trace;
        trace.set_run_label("shift");
        Rng rng(41);
        // A burst dense enough to push the engine over its shift
        // threshold, then a quiet tail so it unshifts again.
        auto reqs = workload::make_requests(
            workload::poisson_arrivals(rng, 6.0, 2.0), rng,
            workload::lognormal_size(700.0, 0.5, 60.0, 0.4));
        for (int i = 0; i < 4; ++i)
            reqs.push_back({8.0 + 2.0 * i, 256, 32});
        core::run_deployment(d, reqs);
    }

    {
        core::Deployment d;
        d.model = model::qwen_32b();
        d.strategy = parallel::Strategy::kDp;
        d.trace = &trace;
        d.faults.events.push_back(
            {fault::FaultKind::kFail, 0, 0.5, 20.0, 1.0});
        trace.set_run_label("faulted-dp");
        // A t=0 batch keeps every replica busy past the fail point, so
        // the fail-stop is guaranteed to drop in-flight requests and the
        // trace carries retried/resubmit detours.
        auto reqs = workload::uniform_batch(6, 400, 120);
        Rng rng(43);
        const auto tail = workload::make_requests(
            workload::poisson_arrivals(rng, 1.5, 4.0), rng,
            workload::lognormal_size(600.0, 0.5, 50.0, 0.4));
        reqs.insert(reqs.end(), tail.begin(), tail.end());
        core::run_deployment(d, reqs);
    }

    {
        core::Deployment d;
        d.model = model::qwen_32b();
        d.strategy = parallel::Strategy::kDp;
        d.trace = &trace;
        d.overload.hedge_delay = 0.5;
        // A tight per-replica admission cap keeps half the t=0 wave
        // waiting, so hedges find still-queued requests, deadlines
        // actually expire, and the drain has waiting work to hand back.
        d.sched.max_running_seqs = 4;
        d.faults.events.push_back(
            {fault::FaultKind::kDrain, 1, 0.75, 8.0, 1.0});
        trace.set_run_label("overload-dp");
        auto reqs = workload::uniform_batch(64, 600, 160);
        Rng rng(47);
        const auto tail = workload::make_requests(
            workload::poisson_arrivals(rng, 4.0, 5.0), rng,
            workload::lognormal_size(500.0, 0.5, 80.0, 0.4));
        reqs.insert(reqs.end(), tail.begin(), tail.end());
        workload::LifecycleOptions lc;
        lc.cancel_rate = 0.2;
        lc.cancel_delay_mean = 1.5;
        lc.seed = 47;
        lc.deadline = 2.5;
        workload::apply_deadlines(&reqs, lc);
        d.cancellations = workload::cancel_stream(reqs, lc);
        core::run_deployment(d, reqs);
    }

    trace.write_file(argv[1]);
    std::printf("golden trace: wrote %s (%zu events)\n", argv[1],
                trace.num_events());
    return 0;
}
