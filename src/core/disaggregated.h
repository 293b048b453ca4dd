/**
 * @file
 * Disaggregated prefill/decode serving baseline (Section 5 related work:
 * Splitwise / DistServe / Mooncake).
 *
 * The node's GPUs are split into a prefill pool and a decode pool, each a
 * TP group. Requests prefill on the prefill pool (producing the first
 * token), their KV cache is transferred over the node fabric, and
 * decoding continues on the decode pool. Compared with colocated
 * chunked-prefill serving (and Shift Parallelism), disaggregation removes
 * prefill/decode interference but dedicates resources to each phase and
 * pays a per-request KV-transfer delay — the tradeoff the paper's related
 * work section describes.
 *
 * The replay is an *online* pipeline on the discrete-event cluster core:
 * both pools advance on one timeline, each KV handoff is a fabric
 * transfer queuing FIFO on a shared `hw::LinkChannel` (overlapping
 * handoffs serialize), and admission to the prefill pool is gated by the
 * decode pool's committed-context budget — a saturated decode pool
 * back-pressures new prefills instead of letting finished-but-
 * untransferable KV pile up.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/deployment.h"

namespace shiftpar::core {

/** Pool split and transfer model for a disaggregated deployment. */
struct DisaggregatedOptions
{
    /** GPUs dedicated to prefill (TP group). */
    int prefill_gpus = 4;

    /** GPUs dedicated to decode (TP group). */
    int decode_gpus = 4;

    /** Scheduler/perf knobs applied to both pools. */
    engine::SchedulerOptions sched;
    parallel::PerfOptions perf;
    parallel::MemoryOptions mem;

    /** Throughput timeline bin width for both pools and the combined
     *  metrics, seconds. */
    double throughput_bin = 1.0;

    /**
     * Admission budget: total context tokens (prompt + output) of
     * requests admitted to prefill and not yet finished.
     * An arrival that would exceed the budget waits — decode-pool
     * backpressure stalling prefill admission. 0 derives the budget from
     * the decode pool's KV token capacity.
     */
    std::int64_t max_inflight_decode_tokens = 0;

    /**
     * Observability sink (borrowed, may be null). When set, the prefill
     * and decode pools register as separate engines on the bus; KV
     * handoffs appear as instant events on the prefill pool's track.
     */
    obs::TraceSink* trace = nullptr;
};

/** Pipeline counters of one `DisaggregatedSystem::run_workload`. */
struct DisaggregatedStats
{
    /** Arrivals delayed by the decode-pool admission budget. */
    std::int64_t stalled_admissions = 0;

    /** Total admission delay across stalled arrivals, seconds. */
    double stall_seconds = 0.0;
};

/** A prefill-pool + decode-pool deployment of one model on one node. */
class DisaggregatedSystem
{
  public:
    /** Fatal when the pools exceed the node or the model does not fit. */
    DisaggregatedSystem(model::ModelConfig model, hw::Node node,
                        DisaggregatedOptions opts = {});

    /**
     * Replay a workload end to end on one event timeline: arrivals gate
     * on the admission budget, prefill completions schedule fabric
     * transfers, and transfer completions feed the decode pool. Combined
     * per-request records carry true TTFT (prefill pool, inclusive of
     * admission stall), TPOT (decode pool), and completion; throughput
     * counts both pools' tokens.
     */
    engine::Metrics run_workload(
        const std::vector<engine::RequestSpec>& workload);

    /** @return pipeline counters of the last `run_workload`. */
    const DisaggregatedStats& stats() const { return stats_; }

    /** KV-transfer delay for a context of `tokens` tokens on an idle
     *  fabric, seconds (analytic; queueing adds on top during replay). */
    double transfer_delay(std::int64_t tokens) const;

  private:
    model::ModelConfig model_;
    hw::Node node_;
    DisaggregatedOptions opts_;
    parallel::ParallelConfig prefill_cfg_;
    parallel::ParallelConfig decode_cfg_;
    DisaggregatedStats stats_;
};

} // namespace shiftpar::core
