#include "parallel/kernel_cost_model.h"

#include <algorithm>
#include <utility>

#include "model/flops.h"
#include "util/logging.h"
#include "util/units.h"

namespace shiftpar::parallel {

namespace {

/** Phase count of an all-reduce on this fabric (see hw::CollectiveModel). */
double
all_reduce_phases(const hw::LinkSpec& link, int nranks)
{
    const double p = static_cast<double>(nranks);
    return link.kind == hw::FabricKind::kRing ? 2.0 * (p - 1.0) : 2.0;
}

/** Phase count of an all-to-all / all-gather on this fabric. */
double
exchange_phases(const hw::LinkSpec& link, int nranks)
{
    const double p = static_cast<double>(nranks);
    return link.kind == hw::FabricKind::kRing ? p - 1.0 : 1.0;
}

} // namespace

KernelCostModel::KernelCostModel(hw::Node node, model::ModelConfig m,
                                 hw::KernelCoeffs coeffs, PerfOptions opts)
    : node_(std::move(node)), model_(std::move(m)),
      coeffs_(std::move(coeffs)), opts_(opts)
{
    model_.validate();
}

StepTiming
KernelCostModel::evaluate(const BatchWork& work, const ParallelConfig& cfg,
                          bool sliced_weights,
                          std::vector<KernelCost>* breakdown) const
{
    validate_config_or_die(model_, cfg);
    SP_ASSERT(cfg.world() <= node_.num_gpus,
              "configuration exceeds node size");

    const model::ModelConfig& m = model_;
    const int g = cfg.world();
    const int rep = kv_replication(m, cfg);
    const double L = static_cast<double>(m.num_layers);
    const double wbytes = model::dtype_bytes(m.weight_dtype);
    const double act_b = opts_.act_bytes;
    const double slice =
        sliced_weights ? 1.0 + opts_.slicing_overhead_frac : 1.0;

    StepTiming t;

    // Price one breakdown row: seconds = scale * (count*alpha + beta*flops
    // + gamma*bytes), appended in a fixed order so breakdowns (and the
    // calibration samples derived from them) are deterministic. `bucket`
    // accumulates the row into one Fig. 15 component, so the breakdown
    // sums to the returned step total by construction.
    const auto add = [&](const char* kernel, const char* klass,
                         const hw::KernelCoeff& k, double count,
                         double flops, double bytes, double scale,
                         double* bucket) {
        const double seconds =
            scale * (count * k.alpha + k.beta * flops + k.gamma * bytes);
        *bucket += seconds;
        if (breakdown != nullptr)
            breakdown->push_back({kernel, klass, count, flops, bytes,
                                  seconds});
    };

    if (opts_.engine_overhead) {
        const double overhead = opts_.step_overhead_base +
                                opts_.step_overhead_per_rank * (g - 1);
        t.overhead = overhead;
        if (breakdown != nullptr)
            breakdown->push_back(
                {"engine_overhead", "overhead", 1.0, 0.0, 0.0, overhead});
    }

    const std::int64_t n_raw = work.total_new_tokens();
    if (n_raw == 0)
        return t;

    // Batch semantics shared with the roofline model: SP padding
    // (Section 3.2.1) and feature scaling of the compute tokens.
    const std::int64_t n = cfg.sp > 1 ? round_up(n_raw, cfg.sp) : n_raw;
    const double rows = static_cast<double>(n) / cfg.sp;  // rows per GPU
    const model::PhaseWork& pre = work.prefills;
    const model::PhaseWork& dec = work.decodes;
    const double swiftkv = opts_.swiftkv_prefill_factor;
    const double inflation = opts_.decode_compute_inflation;
    const double compute_tokens =
        static_cast<double>(dec.tokens) * inflation +
        static_cast<double>(pre.tokens) * swiftkv;
    const double n_eff = static_cast<double>(n) * compute_tokens /
                         static_cast<double>(n_raw);

    // ---- Norms: two bandwidth-bound elementwise kernels per layer -------
    // (input RMSNorm + post-attention RMSNorm), each a read+write pass
    // over this rank's rows of the hidden stream.
    add("norm", "norm", coeffs_.norm, 2.0 * L, 0.0,
        2.0 * L * (2.0 * rows * m.hidden_size * act_b), 1.0, &t.gemm);

    // ---- Projection / MLP GEMMs, per layer per GPU ----------------------
    // Weight shards stream at 1/TP (SP replicates weights); activation IO
    // covers each GEMM's input read and sharded output write.
    const double qkv_out = (m.q_heads + 2.0 * m.kv_heads) *
                           static_cast<double>(m.head_dim);
    const double qkv_w = static_cast<double>(m.hidden_size) * qkv_out *
                         wbytes;
    const double o_w = static_cast<double>(m.q_heads) * m.head_dim *
                       m.hidden_size * wbytes;
    // Dense MLP weights, or the router for MoE (expert streams below).
    const double mlp_w =
        model::layer_dense_weight_bytes(m) - m.attn_params_per_layer() *
                                                 wbytes;
    const double expert_read =
        model::layer_expert_read_bytes(m, static_cast<double>(n)) /
        (cfg.tp * cfg.ep);

    add("qkv_gemm", "gemm", coeffs_.gemm, L,
        L * model::qkv_flops(m, n_eff) / g,
        L * (qkv_w / cfg.tp * slice + rows * m.hidden_size * act_b +
             rows * qkv_out * act_b / cfg.tp),
        1.0, &t.gemm);
    add("o_gemm", "gemm", coeffs_.gemm, L,
        L * model::o_flops(m, n_eff) / g,
        L * (o_w / cfg.tp * slice +
             rows * m.q_heads * m.head_dim * act_b / cfg.tp +
             rows * m.hidden_size * act_b),
        1.0, &t.gemm);
    add("mlp_gemm", "gemm", coeffs_.gemm, L,
        L * model::mlp_flops(m, n_eff) / g,
        L * ((mlp_w / cfg.tp + expert_read) * slice +
             2.0 * rows * m.hidden_size * act_b +
             3.0 * rows * m.intermediate_size * act_b / cfg.tp),
        1.0, &t.gemm);

    // ---- Attention, prefill and decode kernels separately ---------------
    // Head-sharded across the whole group (the KV-cache invariance);
    // replicated KV heads multiply cache traffic. One fused launch per
    // layer for each phase present in the batch.
    if (pre.seqs > 0) {
        const double kv = swiftkv * model::kv_read_bytes(m, pre) +
                          model::kv_write_bytes(m, pre);
        add("attn_prefill", "attention", coeffs_.attention, L,
            L * (swiftkv * model::attn_flops(m, pre)) / g, L * kv * rep / g,
            opts_.attention_scale, &t.attention);
    }
    if (dec.seqs > 0) {
        const double kv =
            model::kv_read_bytes(m, dec) + model::kv_write_bytes(m, dec);
        add("attn_decode", "attention", coeffs_.attention, L,
            L * (inflation * model::attn_flops(m, dec)) / g, L * kv * rep / g,
            opts_.attention_scale, &t.attention);
    }

    // ---- Collectives, per layer (Algorithm 1) ---------------------------
    // Priced phases*alpha + wire_volume*gamma with the fabric's phase
    // counts; volumes match hw::CollectiveModel (Table 2 accounting).
    const hw::LinkSpec& link = node_.link;
    if (cfg.tp > 1) {
        const double ar_bytes = rows * m.hidden_size * act_b;
        add("tp_allreduce", "collective", coeffs_.collective,
            2.0 * L * all_reduce_phases(link, cfg.tp), 0.0,
            2.0 * L *
                hw::CollectiveModel::all_reduce_volume(ar_bytes, cfg.tp),
            opts_.comm_scale, &t.comm);
    }
    if (cfg.sp > 1) {
        const double qkv_cols =
            (m.q_heads + 2.0 * m.kv_heads * rep) * m.head_dim / cfg.tp;
        add("sp_a2a_qkv", "collective", coeffs_.collective,
            L * exchange_phases(link, cfg.sp), 0.0,
            L * hw::CollectiveModel::all_to_all_volume(
                    rows * qkv_cols * act_b, cfg.sp),
            opts_.comm_scale, &t.comm);
        const double o_cols =
            static_cast<double>(m.q_heads) * m.head_dim / cfg.tp;
        add("sp_a2a_o", "collective", coeffs_.collective,
            L * exchange_phases(link, cfg.sp), 0.0,
            L * hw::CollectiveModel::all_to_all_volume(
                    rows * o_cols * act_b, cfg.sp),
            opts_.comm_scale, &t.comm);
    }
    if (m.is_moe() && cfg.ep > 1) {
        const double routed =
            rows * m.active_experts * m.hidden_size * act_b / cfg.tp;
        add("ep_a2a", "collective", coeffs_.collective,
            2.0 * L * exchange_phases(link, cfg.ep), 0.0,
            2.0 * L *
                hw::CollectiveModel::all_to_all_volume(routed, cfg.ep),
            opts_.comm_scale, &t.comm);
    }

    // ---- LM head (sampled positions only) -------------------------------
    const double sampled = static_cast<double>(work.num_seqs());
    add("lm_head", "gemm", coeffs_.gemm, 1.0,
        model::lm_head_flops(m, sampled) / g,
        static_cast<double>(m.vocab_size) * m.hidden_size * wbytes / g +
            sampled * m.hidden_size * act_b,
        1.0, &t.gemm);

    // ---- Final sequence all-gather (Algorithm 1 line 13) ----------------
    if (cfg.sp > 1) {
        add("sp_allgather", "collective", coeffs_.collective,
            exchange_phases(link, cfg.sp), 0.0,
            hw::CollectiveModel::all_gather_volume(
                static_cast<double>(n) * m.hidden_size * act_b, cfg.sp),
            opts_.comm_scale, &t.comm);
    }
    return t;
}

} // namespace shiftpar::parallel
