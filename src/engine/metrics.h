/**
 * @file
 * Experiment telemetry: per-request records and aggregates.
 *
 * Collected once per engine; `Metrics::merge` combines replicas for DP
 * deployments. Everything the paper reports is derived here: TTFT / TPOT /
 * completion distributions (Figs. 9-11), time-binned combined throughput
 * and its peak (Table 5, Fig. 7), and cost-component totals (Fig. 15).
 * Each finished request is kept once, as a `RequestRecord`; the latency
 * distributions are built from those records when asked for. Steps are
 * folded into the throughput and cost totals as they are recorded and
 * never kept, so a `Metrics` is O(requests + throughput bins); a caller
 * that needs the step sequence subscribes to the engine's
 * `obs::StepEvent`s instead.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "engine/request.h"
#include "obs/trace.h"
#include "parallel/perf_model.h"
#include "util/histogram.h"
#include "util/stats.h"

namespace shiftpar::engine {

/** Final record of one completed request. */
struct RequestRecord
{
    RequestId id = 0;
    double arrival = 0.0;
    std::int64_t prompt_tokens = 0;
    std::int64_t output_tokens = 0;
    double ttft = 0.0;
    double tpot = 0.0;
    double completion = 0.0;
    /** Queueing delay: first scheduling minus arrival. */
    double wait = 0.0;
    int preemptions = 0;
};

/** Service-level objective on per-request latencies. */
struct SloSpec
{
    /** Maximum acceptable TTFT, seconds. */
    double ttft = 2.0;

    /** Maximum acceptable TPOT, seconds. */
    double tpot = 0.05;
};

/** Aggregated results of one run. */
class Metrics
{
  public:
    /** @param throughput_bin Width of throughput time bins, seconds. */
    explicit Metrics(double throughput_bin = 1.0);

    /** Record a finished request. */
    void on_request_finished(const Request& r);

    /** Record an externally assembled request result (e.g. a request that
     *  spanned multiple engines in a disaggregated deployment). */
    void add_record(const RequestRecord& rec);

    /** Fold one engine step into the throughput timeline and totals. */
    void on_step(const obs::StepEvent& step);

    /** Fold another engine's metrics into this one (DP merge). */
    void merge(const Metrics& other);

    /** Fold only another engine's step aggregates; bin widths must match. */
    void merge_steps(const Metrics& other);

    /** @return per-request records, in completion order. */
    const std::vector<RequestRecord>& requests() const { return requests_; }

    /**
     * TTFT distribution, seconds. Each latency distribution is a
     * log-bucketed histogram built from `requests()` in record order on
     * every call: quantiles exact to within 0.5% relative error, moments
     * exact. Callers that query one many times should keep the result.
     */
    util::Histogram ttft() const;

    /** TPOT distribution, seconds; single-token requests have none. */
    util::Histogram tpot() const;

    /** Completion-time distribution, seconds. */
    util::Histogram completion() const;

    /** Queueing-delay distribution, seconds. */
    util::Histogram wait() const;

    /** Combined (prompt+output) token throughput timeline, tokens/s. */
    const TimeSeries& throughput() const { return throughput_; }

    /** @return total tokens processed (prompt + output). */
    std::int64_t total_tokens() const { return total_tokens_; }

    /** @return latest step end time across merged engines, seconds. */
    double end_time() const { return end_time_; }

    /** @return mean combined throughput over [0, end_time], tokens/s. */
    double mean_throughput() const;

    /**
     * Fraction of requests meeting both SLO bounds (DistServe-style
     * goodput numerator); 0 when no requests finished.
     */
    double slo_attainment(const SloSpec& slo) const;

    /**
     * Goodput: combined token throughput counting only SLO-satisfying
     * requests' tokens, tokens/s.
     */
    double goodput(const SloSpec& slo) const;

    /** @return sum of per-step cost components across all steps. */
    const parallel::StepTiming& component_totals() const
    {
        return component_totals_;
    }

    /** @return number of steps executed with SP > 1 (base config). */
    std::int64_t sp_steps() const { return sp_steps_; }

    /** @return number of steps executed with SP == 1 (full TP / shift). */
    std::int64_t tp_steps() const { return tp_steps_; }

  private:
    /** Histogram of one record field over `requests_`, in record order;
     *  with `multi_token_only`, records of one output token are skipped. */
    util::Histogram distribution(double RequestRecord::*field,
                                 bool multi_token_only = false) const;

    std::vector<RequestRecord> requests_;
    TimeSeries throughput_;
    parallel::StepTiming component_totals_;
    std::int64_t total_tokens_ = 0;
    std::int64_t sp_steps_ = 0;
    std::int64_t tp_steps_ = 0;
    double end_time_ = 0.0;
};

} // namespace shiftpar::engine
