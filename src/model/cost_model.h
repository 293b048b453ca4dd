/**
 * @file
 * The pluggable step-cost interface.
 *
 * Every latency the simulator reports flows through one evaluation: "how
 * long does one engine iteration take under this (SP, TP) configuration?".
 * `CostModel` lifts that question behind an interface so implementations at
 * different fidelity levels are interchangeable:
 *
 *  - `parallel::PerfModel` — the default roofline aggregate (Algorithm 1
 *    shapes, max(compute, memory) per fused region). Fast, and the model
 *    the paper-reproduction figures are pinned against.
 *  - `parallel::KernelCostModel` — a kernel-decomposed model (attention
 *    prefill/decode, QKV/O/MLP GEMMs, norms, collectives) whose per-kernel
 *    coefficients (`hw::KernelCoeffs`) can be fit to external profiles by
 *    `tools/calibrate`.
 *
 * The batch/timing vocabulary (`PhaseWork`, `BatchWork`, `StepTiming`)
 * lives here — it describes *work* and *cost*, not a parallelism strategy.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.h"

namespace shiftpar::parallel {
struct ParallelConfig;
} // namespace shiftpar::parallel

namespace shiftpar::model {

/**
 * One phase (prefill or decode) of a step, as exact integer sums over its
 * sequences. A sequence processing `n` new tokens after `past` cached ones
 * attends `n·past + n(n+1)/2` (query, key) pairs — token i sees `past + i
 * + 1` keys — and streams `past + n/2` KV tokens (the cached context plus
 * half the chunk, its average causal reach), kept doubled as an integer.
 */
struct PhaseWork
{
    std::int64_t seqs = 0;    ///< sequences in this phase
    std::int64_t tokens = 0;  ///< Σ n: new tokens processed
    std::int64_t pairs = 0;   ///< Σ n·past + n(n+1)/2
    std::int64_t read2 = 0;   ///< Σ 2·past + n

    bool operator==(const PhaseWork&) const = default;
};

/** The work one engine iteration performs, summed per phase. */
struct BatchWork
{
    PhaseWork prefills;  ///< prefill chunks (SwiftKV applies only to these)
    PhaseWork decodes;   ///< decode chunks

    /** Add one sequence's chunk of `new_tokens` (>= 1) after `past`. */
    void add(std::int64_t new_tokens, std::int64_t past, bool is_prefill)
    {
        SP_ASSERT(new_tokens >= 1 && past >= 0);
        PhaseWork& p = is_prefill ? prefills : decodes;
        p.seqs += 1;
        p.tokens += new_tokens;
        p.pairs += new_tokens * past + new_tokens * (new_tokens + 1) / 2;
        p.read2 += 2 * past + new_tokens;
    }

    /** Undo an `add` of the same chunk (the sums are exact integers). */
    void remove(std::int64_t new_tokens, std::int64_t past, bool is_prefill)
    {
        SP_ASSERT(new_tokens >= 1 && past >= 0);
        PhaseWork& p = is_prefill ? prefills : decodes;
        p.seqs -= 1;
        p.tokens -= new_tokens;
        p.pairs -= new_tokens * past + new_tokens * (new_tokens + 1) / 2;
        p.read2 -= 2 * past + new_tokens;
    }

    /** @return sum of new tokens (the Alg. 2 batch size). */
    std::int64_t total_new_tokens() const
    {
        return prefills.tokens + decodes.tokens;
    }

    /** @return number of sequences in the batch. */
    std::int64_t num_seqs() const { return prefills.seqs + decodes.seqs; }

    /** Convenience: a pure-prefill batch of one request. */
    static BatchWork prefill(std::int64_t prompt_tokens);

    /** Convenience: a decode batch of `batch` sequences at `context` each. */
    static BatchWork decode(std::int64_t batch, std::int64_t context);

    bool operator==(const BatchWork&) const = default;
};

/** Step time decomposed into the Figure 15 cost components (seconds). */
struct StepTiming
{
    double gemm = 0.0;       ///< dense/expert GEMM compute + weight reads
    double attention = 0.0;  ///< attention kernels + KV cache traffic
    double comm = 0.0;       ///< collective communication
    double overhead = 0.0;   ///< engine (scheduler/launch) overhead

    double total() const { return gemm + attention + comm + overhead; }

    StepTiming& operator+=(const StepTiming& o);
};

/**
 * One kernel's contribution to a step (per GPU), as reported by cost models
 * that can decompose their estimate. `kernel` is the launch site (e.g.
 * "qkv_gemm", "attn_decode", "tp_allreduce"); `klass` is the coefficient
 * class it is costed under ("gemm", "attention", "norm", "collective",
 * "overhead"). `count`/`flops`/`bytes` are the features the cost was
 * derived from — `count` is the number of launches (or collective phases)
 * the row aggregates, `flops`/`bytes` are totals across them (wire volume
 * for collectives) — so a breakdown doubles as a calibration sample:
 * `tools/calibrate` fits class coefficients to (count, flops, bytes,
 * seconds) rows of exactly this shape, `t = alpha*count + beta*flops +
 * gamma*bytes`.
 */
struct KernelCost
{
    std::string kernel;
    std::string klass;
    double count = 1.0;
    double flops = 0.0;
    double bytes = 0.0;
    double seconds = 0.0;
};

/** Which cost-model implementation a deployment evaluates steps with. */
enum class CostModelKind { kRoofline, kKernel };

/** @return "roofline" / "kernel". */
const char* cost_model_kind_name(CostModelKind kind);

/** Parse a `--cost-model` value; fatal() on anything unrecognized. */
CostModelKind parse_cost_model_kind(const std::string& s);

/**
 * Evaluates step timings for one engine group on one node.
 *
 * Implementations are constructed per (node, model) pair. An instance
 * belongs to one engine or caller thread: `evaluate` is `const`, but an
 * implementation may fill a per-configuration cache on first use
 * (`parallel::PerfModel` does), so one instance must not be queried from
 * two threads at once. The engine owns one instance per replica, and the
 * sweep runner's workers each build their own engines.
 */
class CostModel
{
  public:
    virtual ~CostModel() = default;

    /** @return short implementation name for reports ("roofline", ...). */
    virtual const char* name() const = 0;

    /**
     * Time one engine iteration.
     *
     * @param work The batch composition.
     * @param cfg The execution configuration for this step.
     * @param sliced_weights True when this is a shift-mode step executed
     *        via on-the-fly slicing (adds the transpose penalty).
     * @param breakdown When non-null, filled with the per-kernel
     *        decomposition of the returned timing; the kernel seconds sum
     *        to exactly `result.total()`. Implementations without kernel
     *        granularity report their coarse components as pseudo-kernels.
     */
    virtual StepTiming evaluate(
        const BatchWork& work, const parallel::ParallelConfig& cfg,
        bool sliced_weights = false,
        std::vector<KernelCost>* breakdown = nullptr) const = 0;

    /** Shorthand: full (unchunked) prefill of one prompt. */
    double prefill_time(std::int64_t prompt_tokens,
                        const parallel::ParallelConfig& cfg) const;

    /** Shorthand: one decode step of `batch` seqs at `context` tokens. */
    double decode_step_time(std::int64_t batch, std::int64_t context,
                            const parallel::ParallelConfig& cfg) const;
};

} // namespace shiftpar::model
