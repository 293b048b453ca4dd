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
 */

#pragma once

#include <cstdint>

#include "model/cost_model.h"
#include "model/model_config.h"

namespace shiftpar::model {

/** QKV projection FLOPs for `n` tokens, one layer (GQA-aware). */
double qkv_flops(const ModelConfig& m, double n);

/** Output (O) projection FLOPs for `n` tokens, one layer. */
double o_flops(const ModelConfig& m, double n);

/** MLP FLOPs for `n` tokens, one layer (active experts only for MoE). */
double mlp_flops(const ModelConfig& m, double n);

/** All per-layer GEMM FLOPs (QKV + O + MLP) for `n` tokens. */
double layer_gemm_flops(const ModelConfig& m, double n);

/** LM-head FLOPs for `n` sampled positions. */
double lm_head_flops(const ModelConfig& m, double n);

/**
 * Causal attention FLOPs for one phase of a step, one layer: QK^T and PV
 * each cost 2 * d_h FLOPs per (query head, key) pair.
 */
double attn_flops(const ModelConfig& m, const PhaseWork& p);

/**
 * KV-cache bytes *read* by one phase's attention, one layer, all KV heads.
 *
 * FlashAttention-style kernels stream the K and V cache once per query
 * block; we charge one full read of the attended context per chunk (not per
 * token), matching measured decode memory-boundedness. The chunk's own keys
 * are read from registers/SMEM as they are produced, so each chunk is
 * charged its cached `past` plus half the chunk (`PhaseWork::read2`).
 */
double kv_read_bytes(const ModelConfig& m, const PhaseWork& p);

/** KV-cache bytes written by one phase, one layer, all KV heads. */
double kv_write_bytes(const ModelConfig& m, const PhaseWork& p);

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

/** Activation bytes streamed per layer for `n` tokens (read + write). */
double layer_activation_bytes(const ModelConfig& m, double n);

} // namespace shiftpar::model
