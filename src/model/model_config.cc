#include "model/model_config.h"

#include "util/logging.h"

namespace shiftpar::model {

double
ModelConfig::attn_params_per_layer() const
{
    // QKV projection: d x (h + 2*h_kv)*d_h, O projection: h*d_h x d.
    const double qkv = static_cast<double>(hidden_size) *
                       (q_heads + 2.0 * kv_heads) * head_dim;
    const double o = static_cast<double>(q_heads) * head_dim * hidden_size;
    return qkv + o;
}

double
ModelConfig::mlp_params_per_layer() const
{
    // SwiGLU MLP: gate + up + down = 3 * d * d'.
    const double per_expert =
        3.0 * static_cast<double>(hidden_size) * intermediate_size;
    if (!is_moe())
        return per_expert;
    const double router = static_cast<double>(hidden_size) * num_experts;
    return per_expert * num_experts + router;
}

double
ModelConfig::embedding_params() const
{
    // Untied input embedding + LM head.
    return 2.0 * static_cast<double>(vocab_size) * hidden_size;
}

double
ModelConfig::total_params() const
{
    if (params_total_override > 0.0)
        return params_total_override;
    return num_layers * (attn_params_per_layer() + mlp_params_per_layer()) +
           embedding_params();
}

double
ModelConfig::active_params() const
{
    if (params_active_override > 0.0)
        return params_active_override;
    if (!is_moe())
        return total_params();
    return num_layers *
               (attn_params_per_layer() + mlp_active_params_per_layer()) +
           embedding_params();
}

double
ModelConfig::weight_bytes() const
{
    return total_params() * dtype_bytes(weight_dtype);
}

double
ModelConfig::expert_weight_fraction() const
{
    if (!is_moe())
        return 0.0;
    // Computed from the analytic structure so the split stays meaningful
    // even when headline totals are pinned by an override.
    const double per_expert =
        3.0 * static_cast<double>(hidden_size) * intermediate_size;
    const double experts = num_layers * per_expert * num_experts;
    const double analytic_total =
        num_layers * (attn_params_per_layer() + mlp_params_per_layer()) +
        embedding_params();
    return experts / analytic_total;
}

double
ModelConfig::kv_bytes_per_token() const
{
    return kv_bytes_per_token_layer() * num_layers;
}

void
ModelConfig::validate() const
{
    if (num_layers <= 0 || hidden_size <= 0 || q_heads <= 0 ||
        kv_heads <= 0 || head_dim <= 0 || intermediate_size <= 0 ||
        vocab_size <= 0) {
        fatal("ModelConfig '" + name + "': all structural sizes must be > 0");
    }
    if (q_heads % kv_heads != 0) {
        fatal("ModelConfig '" + name +
              "': q_heads must be a multiple of kv_heads (GQA grouping)");
    }
    if (is_moe() && (active_experts <= 0 || active_experts > num_experts)) {
        fatal("ModelConfig '" + name +
              "': active_experts must be in [1, num_experts]");
    }
    if (params_active_override > 0.0 && params_total_override > 0.0 &&
        params_active_override > params_total_override) {
        fatal("ModelConfig '" + name + "': active params exceed total");
    }
}

} // namespace shiftpar::model
