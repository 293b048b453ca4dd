#include "model/flops.h"

#include <algorithm>
#include <cmath>

namespace shiftpar::model {

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

} // namespace shiftpar::model
