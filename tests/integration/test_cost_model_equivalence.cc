/**
 * @file
 * Equivalence pins for the cost-model refactors: lifting `PerfModel`
 * behind the `model::CostModel` interface, and pricing a step from
 * per-phase integer sums instead of a per-chunk list, must not move a
 * single bit of any reported number. A frozen copy of the pre-interface
 * per-chunk step-time arithmetic lives in this file as the reference;
 * `PerfModel::evaluate`, fed the `BatchWork` built from the same chunks,
 * must match it to exact double equality (`EXPECT_EQ`) across randomized
 * (SP, TP, batch, context, sliced) sweeps at the default feature factors.
 * `PerfModel` derives its configuration-only terms once per (config,
 * sliced) pair, so one instance is also priced across interleaved
 * configurations, and an invalid configuration must stay fatal on first
 * use however many valid ones were cached before it.
 * The factory's default must be the roofline model with identical
 * construction, and the cost-metrics instrumentation must not perturb
 * engine timings when enabled (and must not touch the registry when
 * disabled).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/test_helpers.h"
#include "hw/presets.h"
#include "model/presets.h"
#include "obs/metrics_registry.h"
#include "parallel/cost_model_factory.h"
#include "parallel/kernel_cost_model.h"
#include "parallel/perf_model.h"
#include "util/rng.h"
#include "util/units.h"

namespace shiftpar::parallel {
namespace {

/** One sequence's share of a step, as the pre-aggregate engine listed it. */
struct Chunk
{
    std::int64_t new_tokens = 0;
    std::int64_t past = 0;
    bool is_prefill = false;
};

/**
 * Frozen copy of the roofline step-time arithmetic as it stood before the
 * CostModel interface existed, walking the chunk list. Deliberately NOT
 * shared with production code: this is the reference the refactored path
 * is pinned against, and it must keep the exact operation order of the
 * original (the per-chunk attention and KV helpers it used are inlined
 * verbatim).
 */
StepTiming
legacy_step_time(const hw::Node& node, const model::ModelConfig& m,
                 const PerfOptions& opts, const hw::CollectiveModel& coll,
                 const std::vector<Chunk>& chunks, const ParallelConfig& cfg,
                 bool sliced_weights)
{
    const int g = cfg.world();
    const int rep = kv_replication(m, cfg);
    const double wbytes = model::dtype_bytes(m.weight_dtype);
    const double act_b = opts.act_bytes;

    StepTiming t;
    if (opts.engine_overhead) {
        t.overhead = opts.step_overhead_base +
                     opts.step_overhead_per_rank * (g - 1);
    }

    std::int64_t n_raw = 0;
    for (const auto& c : chunks)
        n_raw += c.new_tokens;
    if (n_raw == 0)
        return t;

    const std::int64_t n = cfg.sp > 1 ? round_up(n_raw, cfg.sp) : n_raw;
    const double rows = static_cast<double>(n) / cfg.sp;

    double compute_tokens = 0.0;
    for (const auto& c : chunks) {
        compute_tokens += static_cast<double>(c.new_tokens) *
                          (c.is_prefill ? opts.swiftkv_prefill_factor
                                        : opts.decode_compute_inflation);
    }
    const double compute_scale =
        compute_tokens / static_cast<double>(n_raw);

    const double gemm_flops_pg =
        model::layer_gemm_flops(m, static_cast<double>(n) * compute_scale) /
        g;
    double weight_read_pg =
        model::layer_dense_weight_bytes(m) / cfg.tp +
        model::layer_expert_read_bytes(m, static_cast<double>(n)) /
            (cfg.tp * cfg.ep);
    if (sliced_weights)
        weight_read_pg *= 1.0 + opts.slicing_overhead_frac;
    const double act_bytes_pg =
        model::layer_activation_bytes(m, static_cast<double>(n)) / g;
    const double gemm_layer = node.gpu.kernel_time(
        gemm_flops_pg, weight_read_pg + act_bytes_pg,
        node.gpu.effective_gemm_flops(wbytes));

    // The former per-chunk helpers attn_flops(m, nt, past),
    // kv_read_bytes(m, nt, past) and kv_write_bytes(m, nt).
    const auto chunk_attn_flops = [&](double nt, double past) {
        const double attended = nt * past + nt * (nt + 1.0) / 2.0;
        return 4.0 * m.q_heads * m.head_dim * attended;
    };
    const auto chunk_kv_read = [&](double nt, double past) {
        const double tokens_read = past + nt / 2.0;
        return tokens_read * m.kv_bytes_per_token_layer();
    };
    const auto chunk_kv_write = [&](double nt) {
        return nt * m.kv_bytes_per_token_layer();
    };

    double attn_flops = 0.0;
    double kv_traffic = 0.0;
    for (const auto& c : chunks) {
        const double nt = static_cast<double>(c.new_tokens);
        const double past = static_cast<double>(c.past);
        if (c.is_prefill) {
            const double f = opts.swiftkv_prefill_factor;
            attn_flops += f * chunk_attn_flops(nt, past);
            kv_traffic += f * chunk_kv_read(nt, past) + chunk_kv_write(nt);
        } else {
            attn_flops +=
                opts.decode_compute_inflation * chunk_attn_flops(nt, past);
            kv_traffic += chunk_kv_read(nt, past) + chunk_kv_write(nt);
        }
    }
    const double attn_flops_pg = attn_flops / g;
    const double kv_traffic_pg = kv_traffic * rep / g;
    const double attn_layer = node.gpu.kernel_time(
        attn_flops_pg, kv_traffic_pg,
        node.gpu.effective_attn_flops(model::dtype_bytes(m.kv_dtype)));

    double comm_layer = 0.0;
    if (cfg.tp > 1) {
        const double ar_bytes = rows * m.hidden_size * act_b;
        comm_layer += 2.0 * coll.all_reduce(ar_bytes, cfg.tp);
    }
    if (cfg.sp > 1) {
        const double qkv_cols =
            (m.q_heads + 2.0 * m.kv_heads * rep) * m.head_dim / cfg.tp;
        comm_layer += coll.all_to_all(rows * qkv_cols * act_b, cfg.sp);
        const double o_cols =
            static_cast<double>(m.q_heads) * m.head_dim / cfg.tp;
        comm_layer += coll.all_to_all(rows * o_cols * act_b, cfg.sp);
    }
    if (m.is_moe() && cfg.ep > 1) {
        const double routed =
            rows * m.active_experts * m.hidden_size * act_b / cfg.tp;
        comm_layer += 2.0 * coll.all_to_all(routed, cfg.ep);
    }

    t.gemm = m.num_layers * gemm_layer;
    t.attention = m.num_layers * attn_layer * opts.attention_scale;
    t.comm = m.num_layers * comm_layer * opts.comm_scale;

    const double sampled = static_cast<double>(chunks.size());
    const double head_flops = model::lm_head_flops(m, sampled) / g;
    const double head_bytes =
        static_cast<double>(m.vocab_size) * m.hidden_size * wbytes / g;
    t.gemm += node.gpu.kernel_time(head_flops, head_bytes,
                                   node.gpu.effective_gemm_flops(wbytes));

    if (cfg.sp > 1) {
        t.comm += opts.comm_scale *
                  coll.all_gather(
                      static_cast<double>(n) * m.hidden_size * act_b,
                      cfg.sp);
    }
    return t;
}

std::vector<Chunk>
random_chunks(Rng& rng)
{
    std::vector<Chunk> chunks;
    const int prefills = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < prefills; ++i) {
        chunks.push_back({rng.uniform_int(1, 4096),
                          rng.uniform_int(0, 8192), true});
    }
    const int decodes = static_cast<int>(rng.uniform_int(0, 64));
    for (int i = 0; i < decodes; ++i)
        chunks.push_back({1, rng.uniform_int(1, 8192), false});
    return chunks;
}

/** @return the per-phase sums of `chunks`, built as the engine builds them. */
BatchWork
to_work(const std::vector<Chunk>& chunks)
{
    BatchWork work;
    for (const auto& c : chunks)
        work.add(c.new_tokens, c.past, c.is_prefill);
    return work;
}

void
expect_identical(const StepTiming& a, const StepTiming& b,
                 const std::string& context)
{
    EXPECT_EQ(a.gemm, b.gemm) << context;
    EXPECT_EQ(a.attention, b.attention) << context;
    EXPECT_EQ(a.comm, b.comm) << context;
    EXPECT_EQ(a.overhead, b.overhead) << context;
}

void
expect_within_4ulps(const StepTiming& a, const StepTiming& b,
                    const std::string& context)
{
    EXPECT_DOUBLE_EQ(a.gemm, b.gemm) << context;
    EXPECT_DOUBLE_EQ(a.attention, b.attention) << context;
    EXPECT_DOUBLE_EQ(a.comm, b.comm) << context;
    EXPECT_DOUBLE_EQ(a.overhead, b.overhead) << context;
}

/** Sweep `evaluate` against the frozen per-chunk reference; `exact`
 *  demands bit equality, otherwise 4 ulps. */
void
randomized_equivalence_sweep(const model::ModelConfig& m,
                             const PerfOptions& opts,
                             const std::vector<ParallelConfig>& cfgs,
                             std::uint64_t seed, bool exact = true)
{
    const hw::Node node = hw::h200_node();
    const hw::CollectiveModel coll(node.link);
    const PerfModel perf(node, m, opts);
    Rng rng(seed);
    for (int it = 0; it < 200; ++it) {
        const ParallelConfig cfg = cfgs[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(cfgs.size()) - 1))];
        const std::vector<Chunk> chunks = random_chunks(rng);
        const bool sliced = rng.uniform_int(0, 1) == 1;
        const StepTiming expected =
            legacy_step_time(node, m, opts, coll, chunks, cfg, sliced);
        const StepTiming got = perf.evaluate(to_work(chunks), cfg, sliced);
        const std::string context =
            cfg.to_string() + " iter " + std::to_string(it);
        if (exact)
            expect_identical(got, expected, context);
        else
            expect_within_4ulps(got, expected, context);
    }
}

TEST(CostModelEquivalence, RooflineMatchesFrozenLegacyMathExactly)
{
    const std::vector<ParallelConfig> cfgs = {
        {1, 1}, {1, 2}, {1, 4}, {1, 8}, {2, 1},
        {2, 2}, {2, 4}, {4, 1}, {4, 2}, {8, 1}};
    randomized_equivalence_sweep(model::llama_70b(), PerfOptions{}, cfgs,
                                 2026);
    randomized_equivalence_sweep(model::qwen_32b(), PerfOptions{}, cfgs,
                                 8'0808);
}

TEST(CostModelEquivalence, NonDefaultOptionsMatchToo)
{
    PerfOptions opts;
    opts.swiftkv_prefill_factor = 0.6;
    opts.decode_compute_inflation = 1.5;
    opts.comm_scale = 0.5;
    opts.attention_scale = 0.7;
    opts.engine_overhead = false;
    opts.slicing_overhead_frac = 0.45;
    const std::vector<ParallelConfig> cfgs = {{1, 8}, {2, 4}, {8, 1}};
    // Non-unit factors are applied once per phase sum, where the
    // reference applies them once per chunk, so the products round
    // differently: agreement is to 4 ulps, not to the bit.
    randomized_equivalence_sweep(model::llama_70b(), opts, cfgs, 17,
                                 /*exact=*/false);
}

TEST(CostModelEquivalence, MoeWithExpertParallelMatches)
{
    const std::vector<ParallelConfig> cfgs = {
        {1, 8, 1}, {1, 8, 8}, {4, 2, 8}, {8, 1, 4}};
    randomized_equivalence_sweep(model::llama_17b_16e(), PerfOptions{},
                                 cfgs, 99);
}

/**
 * Price every `(config, sliced)` step of `sequence` with one `PerfModel`,
 * so each configuration's cached terms are reused after other
 * configurations were priced in between, and check each step against the
 * frozen reference bit for bit.
 */
void
interleaved_pricing(
    const model::ModelConfig& m,
    const std::vector<std::pair<ParallelConfig, bool>>& sequence,
    std::uint64_t seed)
{
    const hw::Node node = hw::h200_node();
    const hw::CollectiveModel coll(node.link);
    const PerfOptions opts;
    const PerfModel perf(node, m, opts);
    Rng rng(seed);
    for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < sequence.size(); ++i) {
            const auto& [cfg, sliced] = sequence[i];
            std::vector<Chunk> chunks = random_chunks(rng);
            if (chunks.empty())
                chunks.push_back({1, 100, false});
            const StepTiming expected =
                legacy_step_time(node, m, opts, coll, chunks, cfg, sliced);
            const StepTiming got =
                perf.evaluate(to_work(chunks), cfg, sliced);
            expect_identical(got, expected,
                             cfg.to_string() + (sliced ? " sliced" : "") +
                                 " round " + std::to_string(round) +
                                 " step " + std::to_string(i));
        }
    }
}

TEST(CostModelEquivalence, OneInstancePricesInterleavedConfigsExactly)
{
    // A base configuration and its shift configuration, each also sliced,
    // and back: a table that ignored `sliced` would price the sliced
    // steps with unsliced weight traffic.
    const ParallelConfig base{2, 4};
    const ParallelConfig shift = base.shift_config();
    interleaved_pricing(model::llama_70b(),
                        {{base, false},
                         {shift, false},
                         {base, true},
                         {shift, true},
                         {base, false},
                         {shift, true},
                         {shift, false}},
                        33);
    // The MoE model across configurations that differ only in EP: a
    // table that ignored `ep` would reuse the EP=1 expert shards and
    // drop the dispatch all-to-alls.
    interleaved_pricing(model::llama_17b_16e(),
                        {{{1, 8, 1}, false},
                         {{1, 8, 8}, false},
                         {{4, 2, 8}, false},
                         {{1, 8, 8}, true},
                         {{1, 8, 1}, true},
                         {{4, 2, 8}, true},
                         {{1, 8, 4}, false},
                         {{1, 8, 1}, false}},
                        34);
}

TEST(CostModelEquivalenceDeathTest, InvalidConfigStaysFatalAfterCaching)
{
    const PerfModel perf(hw::h200_node(), model::llama_70b());
    const BatchWork work = BatchWork::decode(8, 1024);
    perf.evaluate(work, {1, 8});
    perf.evaluate(work, {2, 4}, /*sliced_weights=*/true);
    // 64 query heads do not divide across 3 ranks.
    EXPECT_DEATH(perf.evaluate(work, {3, 1}), "invalid parallel config");
    // EP on a dense model, next to a cached configuration with the same
    // SP and TP.
    EXPECT_DEATH(perf.evaluate(work, {1, 8, 2}), "invalid parallel config");
}

TEST(CostModelEquivalence, FactoryDefaultIsTheRooflineModel)
{
    const hw::Node node = hw::h200_node();
    const model::ModelConfig m = model::llama_70b();
    const PerfOptions opts;
    const auto made = make_cost_model(CostModelSpec{}, node, m, opts);
    ASSERT_NE(made, nullptr);
    EXPECT_STREQ(made->name(), "roofline");

    const PerfModel direct(node, m, opts);
    const BatchWork work = BatchWork::prefill(4096);
    for (const ParallelConfig cfg :
         {ParallelConfig{1, 8}, ParallelConfig{4, 2}, ParallelConfig{8, 1}})
        expect_identical(made->evaluate(work, cfg), direct.evaluate(work, cfg),
                         cfg.to_string());
}

TEST(CostModelEquivalence, FactoryKernelKindBuildsKernelModel)
{
    const hw::Node node = hw::h200_node();
    const model::ModelConfig m = model::llama_70b();
    CostModelSpec spec;
    spec.kind = model::CostModelKind::kKernel;
    const auto made = make_cost_model(spec, node, m, PerfOptions{});
    EXPECT_STREQ(made->name(), "kernel");

    // Calibrated coefficients override the derived defaults.
    hw::KernelCoeffs coeffs =
        hw::derive_kernel_coeffs(node.gpu, node.link);
    coeffs.gemm.beta *= 3.0;
    spec.coeffs = coeffs;
    const auto tuned = make_cost_model(spec, node, m, PerfOptions{});
    const BatchWork work = BatchWork::prefill(4096);
    EXPECT_GT(tuned->evaluate(work, {1, 8}).total(),
              made->evaluate(work, {1, 8}).total());
}

TEST(CostModelEquivalence, RooflineBreakdownReportsPseudoKernels)
{
    const PerfModel perf(hw::h200_node(), model::llama_70b());
    std::vector<KernelCost> rows;
    const StepTiming t =
        perf.evaluate(BatchWork::decode(16, 2048), {4, 2}, false, &rows);
    ASSERT_EQ(rows.size(), 4u);
    double sum = 0.0;
    for (const auto& r : rows)
        sum += r.seconds;
    EXPECT_DOUBLE_EQ(sum, t.total());
}

/**
 * Satellite pin: the cost-metrics instrumentation is observation only.
 * With `cost_metrics` on, every per-request timing must be bit-identical
 * to the uninstrumented engine; with it off (the default), the engine
 * must never touch the metrics registry.
 */
TEST(CostModelEquivalence, CostMetricsDoNotPerturbEngineTimings)
{
    using shiftpar::testing::make_engine;
    using shiftpar::testing::replay;
    using shiftpar::testing::tiny_model;
    using shiftpar::testing::tp8_engine_config;

    const auto run = [](bool metrics_on, obs::MetricsRegistry* reg) {
        obs::MetricsRegistry* prev =
            obs::MetricsRegistry::set_thread_override(reg);
        auto cfg = tp8_engine_config();
        cfg.cost_metrics = metrics_on;
        auto e = make_engine(tiny_model(), cfg);
        e->submit({0.0, 2048, 16}, 1);
        e->submit({0.5, 512, 64}, 2);
        replay({e.get()});
        obs::MetricsRegistry::set_thread_override(prev);
        return e->metrics().requests();
    };

    obs::MetricsRegistry on_reg, off_reg, untouched;
    const auto with = run(true, &on_reg);
    const auto without = run(false, &off_reg);

    ASSERT_EQ(with.size(), without.size());
    for (std::size_t i = 0; i < with.size(); ++i) {
        EXPECT_DOUBLE_EQ(with[i].ttft, without[i].ttft) << i;
        EXPECT_DOUBLE_EQ(with[i].tpot, without[i].tpot) << i;
        EXPECT_DOUBLE_EQ(with[i].completion, without[i].completion) << i;
    }

    std::ostringstream on_os, off_os, untouched_os;
    on_reg.write_prometheus(on_os);
    off_reg.write_prometheus(off_os);
    untouched.write_prometheus(untouched_os);
    EXPECT_NE(on_os.str().find("shiftpar_costmodel_evals_total"),
              std::string::npos);
    EXPECT_NE(on_os.str().find("shiftpar_costmodel_kernel_share"),
              std::string::npos);
    // The disabled engine leaves the registry exactly as it found it.
    EXPECT_EQ(off_os.str(), untouched_os.str());
}

} // namespace
} // namespace shiftpar::parallel
