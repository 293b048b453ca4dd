/**
 * @file
 * Transformer model description.
 *
 * `ModelConfig` carries the structural parameters that determine inference
 * performance: layer count, hidden size, Q/KV head counts (GQA, Section
 * 3.2.1), MLP width, and the MoE decomposition for sparse models. Parameter
 * counts are derived analytically from the structure; presets may pin the
 * headline totals to the paper's Table 4 values via the override fields
 * (model cards round, and exact GEMM shapes are what matter for timing).
 */

#pragma once

#include <cstdint>
#include <string>

#include "model/dtype.h"

namespace shiftpar::model {

/** Structural description of one decoder-only transformer. */
struct ModelConfig
{
    std::string name;

    /** Number of transformer layers. */
    int num_layers = 0;

    /** Hidden (embedding) dimension d. */
    int hidden_size = 0;

    /** Number of query attention heads h. */
    int q_heads = 0;

    /** Number of key/value heads h_kv (GQA when < q_heads). */
    int kv_heads = 0;

    /** Per-head dimension d_h. */
    int head_dim = 0;

    /** MLP intermediate dimension d' (per expert for MoE). */
    int intermediate_size = 0;

    /** Vocabulary size. */
    int vocab_size = 0;

    /** Maximum supported context length (prompt + output), tokens. */
    std::int64_t max_context = 131072;

    /** Total experts per MoE layer (0 = dense model). */
    int num_experts = 0;

    /** Experts activated per token (MoE only). */
    int active_experts = 0;

    /** Weight datatype (paper evaluates FP8 throughout). */
    DType weight_dtype = DType::kFp8;

    /** KV cache datatype (FP16 default; FP8 for the Mooncake run). */
    DType kv_dtype = DType::kFp16;

    /** Optional pinned totals matching Table 4 (0 = use analytic counts). */
    double params_total_override = 0.0;
    double params_active_override = 0.0;

    /** @return true when this is a mixture-of-experts model. */
    bool is_moe() const { return num_experts > 0; }

    /** Attention parameters of one layer (QKV + O projections). */
    double attn_params_per_layer() const;

    /** MLP parameters of one layer: all experts for MoE, plus router. */
    double mlp_params_per_layer() const;

    /** MLP parameters activated per token in one layer. */
    double mlp_active_params_per_layer() const;

    /** Embedding + LM-head parameters (untied). */
    double embedding_params() const;

    /**
     * Total (static) parameter count.
     * Uses the override when set; analytic count otherwise.
     */
    double total_params() const;

    /**
     * Parameters activated per token (== total for dense models).
     * Uses the override when set; analytic count otherwise.
     */
    double active_params() const;

    /** Total weight bytes at `weight_dtype`. */
    double weight_bytes() const;

    /**
     * Fraction of total weights that are MoE expert weights (0 for dense
     * models) — used to split expert-parallel sharding from TP sharding.
     */
    double expert_weight_fraction() const;

    /** KV cache bytes per token per layer (both K and V, all KV heads). */
    double kv_bytes_per_token_layer() const
    {
        return kv_heads * kv_head_bytes_per_token(head_dim, kv_dtype);
    }

    /** KV cache bytes per token across all layers. */
    double kv_bytes_per_token() const;

    /**
     * Validate internal consistency (positive sizes, head divisibility,
     * GQA grouping); calls fatal() with a diagnostic on failure.
     */
    void validate() const;
};

} // namespace shiftpar::model
