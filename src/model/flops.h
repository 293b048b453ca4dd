/**
 * @file
 * Analytical FLOP and byte counters for transformer inference.
 *
 * All functions count *unsharded* (whole-model) work for one layer or for
 * the whole network; the parallelism performance model divides by shard
 * degrees per strategy. Conventions:
 *  - GEMM FLOPs = 2 * (elements of output) * (reduction dim) — the standard
 *    multiply-accumulate count.
 *  - Attention FLOPs count both the QK^T scores and the softmax(.)V product.
 *  - Causal masking is accounted exactly: token i of a chunk attends to
 *    `past + i + 1` positions. Attention is priced per phase from the
 *    exact integer sums in `PhaseWork`.
 *
 * The per-step formulas are inline: the step-cost models call them on
 * every simulated step.
 */

#pragma once

#include <cstdint>

#include "model/cost_model.h"
#include "model/model_config.h"

namespace shiftpar::model {

/** QKV projection FLOPs for `n` tokens, one layer (GQA-aware). */
inline double
qkv_flops(const ModelConfig& m, double n)
{
    const double out_dim = (m.q_heads + 2.0 * m.kv_heads) * m.head_dim;
    return 2.0 * n * m.hidden_size * out_dim;
}

/** Output (O) projection FLOPs for `n` tokens, one layer. */
inline double
o_flops(const ModelConfig& m, double n)
{
    return 2.0 * n * m.q_heads * m.head_dim * m.hidden_size;
}

/** MLP FLOPs for `n` tokens, one layer (active experts only for MoE). */
inline double
mlp_flops(const ModelConfig& m, double n)
{
    return 2.0 * n * m.mlp_active_params_per_layer();
}

/** All per-layer GEMM FLOPs (QKV + O + MLP) for `n` tokens. */
inline double
layer_gemm_flops(const ModelConfig& m, double n)
{
    return qkv_flops(m, n) + o_flops(m, n) + mlp_flops(m, n);
}

/** LM-head FLOPs for `n` sampled positions. */
inline double
lm_head_flops(const ModelConfig& m, double n)
{
    return 2.0 * n * m.hidden_size * m.vocab_size;
}

/**
 * Causal attention FLOPs for one phase of a step, one layer: QK^T and PV
 * each cost 2 * d_h FLOPs per (query head, key) pair.
 */
inline double
attn_flops(const ModelConfig& m, const PhaseWork& p)
{
    return 4.0 * m.q_heads * m.head_dim * static_cast<double>(p.pairs);
}

/**
 * KV-cache bytes *read* by one phase's attention, one layer, all KV heads.
 *
 * FlashAttention-style kernels stream the K and V cache once per query
 * block; we charge one full read of the attended context per chunk (not per
 * token), matching measured decode memory-boundedness. The chunk's own keys
 * are read from registers/SMEM as they are produced, so each chunk is
 * charged its cached `past` plus half the chunk (`PhaseWork::read2`).
 */
inline double
kv_read_bytes(const ModelConfig& m, const PhaseWork& p)
{
    return static_cast<double>(p.read2) / 2.0 * m.kv_bytes_per_token_layer();
}

/** KV-cache bytes written by one phase, one layer, all KV heads. */
inline double
kv_write_bytes(const ModelConfig& m, const PhaseWork& p)
{
    return static_cast<double>(p.tokens) * m.kv_bytes_per_token_layer();
}

/**
 * Weight bytes read from HBM in one layer to process a batch of
 * `batch_tokens` tokens.
 *
 * Dense layers read all their weights once per step. MoE layers read only
 * the experts the batch routes to: with `n * active_experts` routed slots
 * over `num_experts` experts, the expected fraction of experts touched is
 * 1 - (1 - 1/E)^(n*a) (uniform-routing approximation).
 */
double layer_weight_read_bytes(const ModelConfig& m, double batch_tokens);

/** Dense weight bytes per layer (attention + dense MLP + MoE router). */
double layer_dense_weight_bytes(const ModelConfig& m);

/** Expert weight bytes read per layer for `batch_tokens` (0 for dense). */
double layer_expert_read_bytes(const ModelConfig& m, double batch_tokens);

/**
 * Activation bytes streamed per layer for `n` tokens: a rough read+write
 * of the hidden stream around each of the four GEMM regions, at BF16
 * activation width.
 */
inline double
layer_activation_bytes(const ModelConfig& m, double n)
{
    return 8.0 * n * m.hidden_size * dtype_bytes(DType::kBf16);
}

} // namespace shiftpar::model
