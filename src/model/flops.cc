#include "model/flops.h"

#include <algorithm>
#include <cmath>

namespace shiftpar::model {

double
qkv_flops(const ModelConfig& m, double n)
{
    const double out_dim = (m.q_heads + 2.0 * m.kv_heads) * m.head_dim;
    return 2.0 * n * m.hidden_size * out_dim;
}

double
o_flops(const ModelConfig& m, double n)
{
    return 2.0 * n * m.q_heads * m.head_dim * m.hidden_size;
}

double
mlp_flops(const ModelConfig& m, double n)
{
    return 2.0 * n * m.mlp_active_params_per_layer();
}

double
layer_gemm_flops(const ModelConfig& m, double n)
{
    return qkv_flops(m, n) + o_flops(m, n) + mlp_flops(m, n);
}

double
lm_head_flops(const ModelConfig& m, double n)
{
    return 2.0 * n * m.hidden_size * m.vocab_size;
}

double
attn_flops(const ModelConfig& m, const PhaseWork& p)
{
    return 4.0 * m.q_heads * m.head_dim * static_cast<double>(p.pairs);
}

double
kv_read_bytes(const ModelConfig& m, const PhaseWork& p)
{
    return static_cast<double>(p.read2) / 2.0 * m.kv_bytes_per_token_layer();
}

double
kv_write_bytes(const ModelConfig& m, const PhaseWork& p)
{
    return static_cast<double>(p.tokens) * m.kv_bytes_per_token_layer();
}

double
layer_dense_weight_bytes(const ModelConfig& m)
{
    const double b = dtype_bytes(m.weight_dtype);
    if (!m.is_moe())
        return (m.attn_params_per_layer() + m.mlp_params_per_layer()) * b;
    const double router =
        static_cast<double>(m.hidden_size) * m.num_experts * b;
    return m.attn_params_per_layer() * b + router;
}

double
layer_expert_read_bytes(const ModelConfig& m, double batch_tokens)
{
    if (!m.is_moe())
        return 0.0;
    const double b = dtype_bytes(m.weight_dtype);
    const double per_expert =
        3.0 * static_cast<double>(m.hidden_size) * m.intermediate_size * b;
    // Expected distinct experts touched under uniform routing of
    // batch_tokens * active_experts slots across num_experts experts.
    const double slots = batch_tokens * m.active_experts;
    const double frac =
        1.0 - std::pow(1.0 - 1.0 / m.num_experts, slots);
    const double experts_touched = m.num_experts * std::min(1.0, frac);
    return experts_touched * per_expert;
}

double
layer_weight_read_bytes(const ModelConfig& m, double batch_tokens)
{
    return layer_dense_weight_bytes(m) +
           layer_expert_read_bytes(m, batch_tokens);
}

double
layer_activation_bytes(const ModelConfig& m, double n)
{
    // Rough per-layer activation traffic: read+write of the hidden stream
    // around each of the four GEMM regions, at BF16 activation width.
    return 8.0 * n * m.hidden_size * dtype_bytes(DType::kBf16);
}

} // namespace shiftpar::model
