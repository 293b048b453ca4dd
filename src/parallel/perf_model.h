/**
 * @file
 * Analytical per-step performance model for all parallelism strategies.
 *
 * The model evaluates one engine iteration (a batch of prefill chunks and
 * decode tokens) under an arbitrary (SP, TP) configuration, following
 * Algorithm 1 of the paper, and returns the step time decomposed into the
 * Figure 15 components: GEMM compute, attention, communication, and engine
 * (vLLM-equivalent) overhead.
 *
 * `PerfModel` is the default `model::CostModel` implementation (the
 * roofline aggregate); see `parallel/kernel_cost_model.h` for the
 * kernel-decomposed alternative. The batch/timing vocabulary lives in
 * `model/cost_model.h` and is re-exported here as `parallel::BatchWork`,
 * `parallel::StepTiming` and friends.
 *
 * Strategy-distinguishing behaviour captured here:
 *  - TP shards weights (1/TP reads) but pays two all-reduces of the full
 *    `n x d` embedding per layer — comm volume independent of TP degree
 *    (Table 2's "TP x const" comm/compute ratio).
 *  - SP shards the sequence; weights are replicated across SP ranks, so a
 *    decode step streams the *whole* TP shard of the weights regardless of
 *    batch size — the worst TPOT in Table 1. Its two all-to-alls move only
 *    1/(SP*TP) of the head activations (Table 2's constant ratio).
 *  - Small batches are padded up to a multiple of SP (Section 3.2.1 load
 *    balancing), wasting up to (SP-1)/batch of the compute.
 *  - KV replication (world > kv_heads, Section 3.2.1) inflates per-rank KV
 *    traffic and the first all-to-all payload.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "hw/topology.h"
#include "model/cost_model.h"
#include "model/flops.h"
#include "model/model_config.h"
#include "parallel/config.h"
#include "parallel/memory.h"

namespace shiftpar::parallel {

// Every layer above `model` refers to these under parallel::.
using model::BatchWork;
using model::CostModel;
using model::KernelCost;
using model::StepTiming;

/** Engine-overhead and ablation knobs. */
struct PerfOptions
{
    /** Fixed serving-engine overhead per step, seconds. */
    double step_overhead_base = 2.0e-3;

    /** Additional coordination overhead per extra rank in the group. */
    double step_overhead_per_rank = 0.25e-3;

    /** Extra fraction of weight-read time paid by on-the-fly slicing in
     *  shift-mode steps (FP8 transpose penalty, Section 3.3.2). */
    double slicing_overhead_frac = 0.30;

    /** Activation dtype bytes (BF16 activations around FP8 GEMMs). */
    double act_bytes = 2.0;

    /**
     * SwiftKV prefill-compute factor (Section 4.5): fraction of the full
     * per-token prefill compute (GEMM + attention) that remains after the
     * SwiftKV model transformation. 1.0 = disabled.
     */
    double swiftkv_prefill_factor = 1.0;

    /**
     * Speculative-decoding compute inflation on decode chunks: the verify
     * pass processes draft_len+1 tokens to emit E accepted tokens, so each
     * emitted token costs (draft_len+1)/E target-model FLOPs (plus the
     * draft model). 1.0 = disabled.
     */
    double decode_compute_inflation = 1.0;

    /**
     * Component-removal knobs for the Fig. 15 methodology ("taking away
     * one component at a time"): scale factors on the communication and
     * attention components, and a switch for the engine overhead. 1/true
     * = the real system; 0/false = component removed.
     */
    double comm_scale = 1.0;
    double attention_scale = 1.0;
    bool engine_overhead = true;
};

/**
 * The roofline step-cost model (default `model::CostModel`).
 *
 * Construct once per (node, model) pair and query with any valid
 * configuration. The first step priced under a (configuration, sliced)
 * pair validates it and derives the terms that depend on nothing else;
 * every later step under that pair reuses them, so an instance belongs to
 * one engine or caller thread.
 */
class PerfModel : public model::CostModel
{
  public:
    PerfModel(hw::Node node, model::ModelConfig m, PerfOptions opts = {});

    const char* name() const override { return "roofline"; }

    /**
     * Time one engine iteration (see `model::CostModel::evaluate`). The
     * optional breakdown reports the four roofline aggregates as
     * pseudo-kernels — this model has no finer granularity.
     */
    StepTiming evaluate(const BatchWork& work, const ParallelConfig& cfg,
                        bool sliced_weights = false,
                        std::vector<KernelCost>* breakdown =
                            nullptr) const override;

    const model::ModelConfig& model() const { return model_; }
    const hw::Node& node() const { return node_; }
    const PerfOptions& options() const { return opts_; }

  private:
    /**
     * The operands of `evaluate` that depend only on one (configuration,
     * sliced) pair, computed as the per-step arithmetic would compute
     * them, so a step prices to the same doubles.
     */
    struct ConfigTerms
    {
        ParallelConfig cfg;
        bool sliced = false;
        int rep = 1;                ///< KV replication factor
        double overhead = 0.0;      ///< engine overhead per step
        double dense_pg = 0.0;      ///< dense weight bytes / TP
        double weight_scale = 1.0;  ///< 1 + slicing overhead when sliced
        double head_bytes = 0.0;    ///< LM-head weight bytes per GPU
        hw::CollectiveCost tp_all_reduce;
        hw::CollectiveCost sp_all_to_all;
        hw::CollectiveCost sp_all_gather;
        hw::CollectiveCost ep_all_to_all;
        double qkv_cols = 0.0;  ///< SP all-to-all QKV columns per TP rank
        double o_cols = 0.0;    ///< SP all-to-all output columns per TP rank
    };

    /** @return `cfg`'s terms, validated and filled on first use. */
    const ConfigTerms& terms(const ParallelConfig& cfg, bool sliced) const;

    hw::Node node_;
    model::ModelConfig model_;
    PerfOptions opts_;
    hw::CollectiveModel coll_;
    double gemm_rate_ = 0.0;  ///< achievable GEMM FLOP/s at the weight dtype
    double attn_rate_ = 0.0;  ///< achievable attention FLOP/s at the KV dtype
    mutable std::vector<ConfigTerms> table_;  ///< filled lazily
};

} // namespace shiftpar::parallel
