#include "parallel/perf_model.h"

#include <algorithm>

#include "util/logging.h"
#include "util/units.h"

namespace shiftpar::parallel {

PerfModel::PerfModel(hw::Node node, model::ModelConfig m, PerfOptions opts)
    : node_(std::move(node)), model_(std::move(m)), opts_(opts),
      coll_(node_.link)
{
    model_.validate();
    gemm_rate_ =
        node_.gpu.effective_gemm_flops(model::dtype_bytes(model_.weight_dtype));
    attn_rate_ =
        node_.gpu.effective_attn_flops(model::dtype_bytes(model_.kv_dtype));
}

const PerfModel::ConfigTerms&
PerfModel::terms(const ParallelConfig& cfg, bool sliced) const
{
    for (const ConfigTerms& c : table_) {
        if (c.cfg == cfg && c.sliced == sliced)
            return c;
    }
    validate_config_or_die(model_, cfg);
    SP_ASSERT(cfg.world() <= node_.num_gpus,
              "configuration exceeds node size");

    const model::ModelConfig& m = model_;
    const int g = cfg.world();
    const double wbytes = model::dtype_bytes(m.weight_dtype);

    ConfigTerms c;
    c.cfg = cfg;
    c.sliced = sliced;
    c.rep = kv_replication(m, cfg);
    if (opts_.engine_overhead) {
        c.overhead = opts_.step_overhead_base +
                     opts_.step_overhead_per_rank * (g - 1);
    }
    c.dense_pg = model::layer_dense_weight_bytes(m) / cfg.tp;
    if (sliced) {
        // On-the-fly slicing transposes each shard before use (FP8 Hopper
        // limitation, Section 3.3.2) — modeled as extra weight traffic.
        c.weight_scale = 1.0 + opts_.slicing_overhead_frac;
    }
    c.head_bytes =
        static_cast<double>(m.vocab_size) * m.hidden_size * wbytes / g;
    if (cfg.tp > 1)
        c.tp_all_reduce = coll_.all_reduce_cost(cfg.tp);
    if (cfg.sp > 1) {
        c.sp_all_to_all = coll_.all_to_all_cost(cfg.sp);
        c.sp_all_gather = coll_.all_gather_cost(cfg.sp);
        // GQA replaces 3h with h + 2*h_kv (Section 3.2.1); replication
        // inflates the KV part.
        c.qkv_cols =
            (m.q_heads + 2.0 * m.kv_heads * c.rep) * m.head_dim / cfg.tp;
        c.o_cols = static_cast<double>(m.q_heads) * m.head_dim / cfg.tp;
    }
    if (m.is_moe() && cfg.ep > 1)
        c.ep_all_to_all = coll_.all_to_all_cost(cfg.ep);
    table_.push_back(c);
    return table_.back();
}

StepTiming
PerfModel::evaluate(const BatchWork& work, const ParallelConfig& cfg,
                    bool sliced_weights,
                    std::vector<KernelCost>* breakdown) const
{
    const ConfigTerms& c = terms(cfg, sliced_weights);
    const model::ModelConfig& m = model_;
    const int g = cfg.world();
    const double act_b = opts_.act_bytes;

    StepTiming t;
    t.overhead = c.overhead;

    // Report the four aggregates as pseudo-kernels; the roofline model has
    // no finer granularity. Deferred to one exit path so every early
    // return stays covered.
    const auto fill_breakdown = [&](const StepTiming& timing) {
        if (breakdown == nullptr)
            return;
        breakdown->push_back({"gemm", "gemm", 1.0, 0.0, 0.0, timing.gemm});
        breakdown->push_back(
            {"attention", "attention", 1.0, 0.0, 0.0, timing.attention});
        breakdown->push_back(
            {"comm", "collective", 1.0, 0.0, 0.0, timing.comm});
        breakdown->push_back(
            {"overhead", "overhead", 1.0, 0.0, 0.0, timing.overhead});
    };

    const std::int64_t n_raw = work.total_new_tokens();
    if (n_raw == 0) {
        fill_breakdown(t);
        return t;
    }

    // Section 3.2.1 load balancing: pad the batch to a multiple of SP so
    // every rank receives the same number of sequence rows.
    const std::int64_t n =
        cfg.sp > 1 ? round_up(n_raw, cfg.sp) : n_raw;
    const double rows = static_cast<double>(n) / cfg.sp;  // rows per GPU

    // Effective compute tokens after feature scaling: SwiftKV shrinks
    // prefill compute, speculative verification inflates decode compute.
    const model::PhaseWork& pre = work.prefills;
    const model::PhaseWork& dec = work.decodes;
    const double swiftkv = opts_.swiftkv_prefill_factor;
    const double inflation = opts_.decode_compute_inflation;
    const double compute_tokens =
        static_cast<double>(dec.tokens) * inflation +
        static_cast<double>(pre.tokens) * swiftkv;
    const double compute_scale =
        compute_tokens / static_cast<double>(n_raw);

    // ---- GEMM compute + weight streaming, per layer per GPU -------------
    // Each GPU computes rows/SP of the sequence against 1/TP of the weight
    // columns: FLOPs / (SP*TP). Weights are read once per step at 1/TP
    // (SP replicates weights — this term is what makes SP decode slow).
    const double gemm_flops_pg =
        model::layer_gemm_flops(m, static_cast<double>(n) * compute_scale) /
        g;
    // Expert weights are additionally spread over the EP dimension
    // (Section 4.6 extension): each rank streams only its local experts.
    const double weight_read_pg =
        (c.dense_pg +
         model::layer_expert_read_bytes(m, static_cast<double>(n)) /
             (cfg.tp * cfg.ep)) *
        c.weight_scale;
    const double act_bytes_pg =
        model::layer_activation_bytes(m, static_cast<double>(n)) / g;
    const double gemm_layer = node_.gpu.kernel_time(
        gemm_flops_pg, weight_read_pg + act_bytes_pg, gemm_rate_);

    // ---- Attention, per layer per GPU -----------------------------------
    // Heads are sharded across the whole group (identically under base and
    // shift configs — the KV-cache invariance); replicated KV heads
    // multiply cache traffic.
    // Verification queries attend with draft_len+1 positions per emitted
    // token (compute inflation), but the cache is still streamed once per
    // chunk, so decode reads are not inflated. SwiftKV skips attention in
    // the reduced layers during prefill.
    const double attn_flops = inflation * model::attn_flops(m, dec) +
                              swiftkv * model::attn_flops(m, pre);
    const double kv_traffic =
        model::kv_read_bytes(m, dec) + model::kv_write_bytes(m, dec) +
        (swiftkv * model::kv_read_bytes(m, pre) +
         model::kv_write_bytes(m, pre));
    const double attn_flops_pg = attn_flops / g;
    const double kv_traffic_pg = kv_traffic * c.rep / g;
    const double attn_layer =
        node_.gpu.kernel_time(attn_flops_pg, kv_traffic_pg, attn_rate_);

    // ---- Communication, per layer (Algorithm 1) --------------------------
    double comm_layer = 0.0;
    if (cfg.tp > 1) {
        // Lines 8 and 11: two all-reduces of embed[n/SP, d].
        const double ar_bytes = rows * m.hidden_size * act_b;
        comm_layer += 2.0 * c.tp_all_reduce.seconds(ar_bytes);
    }
    if (cfg.sp > 1) {
        // Line 4: all-to-all of the fused QKV heads.
        comm_layer += c.sp_all_to_all.seconds(rows * c.qkv_cols * act_b);
        // Line 6: all-to-all of the attention output heads.
        comm_layer += c.sp_all_to_all.seconds(rows * c.o_cols * act_b);
    }
    if (m.is_moe() && cfg.ep > 1) {
        // Expert parallelism routes each token's hidden state to its
        // experts and back: dispatch + combine all-to-alls over the EP
        // group, `active_experts` copies per token.
        const double routed =
            rows * m.active_experts * m.hidden_size * act_b / cfg.tp;
        comm_layer += 2.0 * c.ep_all_to_all.seconds(routed);
    }

    t.gemm = m.num_layers * gemm_layer;
    t.attention = m.num_layers * attn_layer * opts_.attention_scale;
    t.comm = m.num_layers * comm_layer * opts_.comm_scale;

    // ---- LM head (sampled positions only) --------------------------------
    const double sampled = static_cast<double>(work.num_seqs());
    const double head_flops = model::lm_head_flops(m, sampled) / g;
    t.gemm += node_.gpu.kernel_time(head_flops, c.head_bytes, gemm_rate_);

    // ---- Final sequence all-gather (Algorithm 1 line 13) -----------------
    if (cfg.sp > 1) {
        t.comm += opts_.comm_scale *
                  c.sp_all_gather.seconds(static_cast<double>(n) *
                                          m.hidden_size * act_b);
    }
    fill_breakdown(t);
    return t;
}

} // namespace shiftpar::parallel
