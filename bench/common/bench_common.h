/**
 * @file
 * Shared driver utilities for the per-figure benchmark binaries.
 *
 * Every bench binary reproduces one table/figure of the paper: it builds
 * deployments via these helpers, replays the figure's workload, prints an
 * aligned table of the same rows/series the paper reports, and writes a CSV
 * into bench_results/ for external plotting.
 */

#pragma once

#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/framework.h"
#include "engine/metrics.h"
#include "obs/chrome_trace.h"
#include "obs/report_json.h"
#include "util/table.h"
#include "workload/synthetic.h"

namespace shiftpar::bench {

/**
 * Parse the standard observability flags and arm the shared sinks. Call
 * first in every bench `main`:
 *
 *   --trace <path>   write a Chrome-trace/Perfetto JSON covering every
 *                    run the binary performs (load in ui.perfetto.dev)
 *   --report <path>  JSON run-report path (default:
 *                    bench_results/<figure-slug>.report.json)
 *   --no-report      disable the JSON run report
 *   --jobs <n>       parallel sweep workers for `run_sweep` (default:
 *                    hardware concurrency; results are byte-identical for
 *                    any value — see common/sweep.h)
 *   --profile        attach the sim-core self-profiler to every
 *                    deployment run and fold its attribution into the
 *                    self-observability metrics (report `metrics`
 *                    section / --metrics-out)
 *   --metrics-out <path>  write the process's metrics registry as a
 *                    Prometheus-style text exposition at exit
 *   --cost-model <roofline|kernel>  step-cost model for every deployment
 *                    the binary runs (default: roofline, bit-identical to
 *                    the pre-interface engine)
 *   --kernel-coeffs <path>  load per-kernel coefficients from a
 *                    `tools/calibrate` report (implies --cost-model
 *                    kernel; default: derived from the node's hardware)
 *
 * All outputs are flushed at process exit. Tracing and profiling are off
 * unless their flags are given; simulation results are bit-identical
 * either way.
 */
void init(int argc, char** argv);

/** Shared trace sink (null when `--trace` was not given). */
obs::TraceSink* trace();

/** Parsed `--jobs` value (defaults to hardware concurrency). */
int jobs();

/**
 * Shared run report that `run_deployment_named` records into. On a sweep
 * worker thread this resolves to the point's private buffer (see
 * `detail::set_thread_report`), so records never interleave across
 * concurrently simulated points.
 */
obs::ReportJson& report();

/**
 * Record a run performed outside `run_deployment_named` (disaggregated
 * systems, hand-built engines) into the shared report.
 */
void record_run(const std::string& name, const engine::Metrics& metrics);

/**
 * Label the next run in the shared trace (engines registered afterwards
 * appear under "<label>/..." tracks). No-op without `--trace`.
 */
void set_run_label(const std::string& label);

/** The four strategies every comparison figure sweeps. */
const std::vector<parallel::Strategy>& comparison_strategies();

/** A standard 8xH200 deployment of `model` under `strategy`. */
core::Deployment standard_deployment(const model::ModelConfig& model,
                                     parallel::Strategy strategy);

/** Result of one strategy run. */
struct RunResult
{
    std::string name;
    core::ResolvedDeployment resolved;
    engine::Metrics metrics;
};

/** Build + replay `workload` under `strategy`; returns merged metrics. */
RunResult run_strategy(const model::ModelConfig& model,
                       parallel::Strategy strategy,
                       const std::vector<engine::RequestSpec>& workload);

/** As `run_strategy` but with a fully specified deployment. */
RunResult run_deployment_named(const std::string& name,
                               const core::Deployment& d,
                               const std::vector<engine::RequestSpec>& workload);

/** Single-request latency probe (the paper's "minimum latency" points). */
struct LatencyProbe
{
    double ttft = 0.0;       ///< seconds
    double tpot = 0.0;       ///< seconds
    double completion = 0.0; ///< seconds
};

/**
 * Measure minimum latency: one request processed alone (requests
 * sequentially, no queueing).
 */
LatencyProbe min_latency(const model::ModelConfig& model,
                         parallel::Strategy strategy, std::int64_t prompt,
                         std::int64_t output);

/**
 * Measure peak combined throughput: saturate with `num_requests` uniform
 * requests arriving at t=0 and divide total tokens by makespan.
 */
double peak_throughput(const model::ModelConfig& model,
                       parallel::Strategy strategy, std::int64_t prompt,
                       std::int64_t output, int num_requests = 512);

/** Print the standard figure banner. */
void print_banner(const std::string& figure, const std::string& title);

/** Path under bench_results/ for persisting a figure's CSV. */
std::string results_path(const std::string& filename);

namespace detail {

/**
 * Redirect this thread's report records (`report()`, `record_run`,
 * `run_deployment_named`) into `buffer`; null restores the shared report.
 * Used by the sweep runner to give each point a private buffer that is
 * merged into the shared report in point order.
 */
void set_thread_report(obs::ReportJson* buffer);

/** @return whether `--no-report` was NOT given. */
bool report_enabled();

/** Override the `--jobs` value programmatically (tests). */
void set_jobs(int jobs);

} // namespace detail

} // namespace shiftpar::bench
