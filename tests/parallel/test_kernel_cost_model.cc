/**
 * @file
 * Tests for the kernel-decomposed cost model: the breakdown must account
 * for every second of the reported step, the collective rows must carry
 * exactly the Table 2 wire volumes, and the structural orderings the
 * roofline model guarantees (monotonicity, SP padding, degenerate batches)
 * must survive the change of pricing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "hw/presets.h"
#include "model/presets.h"
#include "parallel/kernel_cost_model.h"
#include "util/rng.h"

namespace shiftpar::parallel {
namespace {

class KernelCostModelTest : public ::testing::Test
{
  protected:
    hw::Node node_ = hw::h200_node();
    model::ModelConfig llama_ = model::llama_70b();
    hw::KernelCoeffs coeffs_ =
        hw::derive_kernel_coeffs(node_.gpu, node_.link);
    KernelCostModel kernel_{node_, llama_, coeffs_};

    const KernelCost* find(const std::vector<KernelCost>& rows,
                           const std::string& name) const
    {
        for (const auto& r : rows)
            if (r.kernel == name)
                return &r;
        return nullptr;
    }

    double sum_seconds(const std::vector<KernelCost>& rows) const
    {
        double s = 0.0;
        for (const auto& r : rows)
            s += r.seconds;
        return s;
    }
};

TEST_F(KernelCostModelTest, BreakdownSumsToReportedTotal)
{
    const ParallelConfig cfgs[] = {{1, 1}, {1, 8}, {8, 1}, {4, 2}, {2, 2}};
    const BatchWork works[] = {BatchWork::prefill(4096),
                               BatchWork::decode(64, 2048),
                               BatchWork::decode(1, 512)};
    for (const auto& cfg : cfgs) {
        for (const auto& work : works) {
            std::vector<KernelCost> rows;
            const StepTiming t = kernel_.evaluate(work, cfg, false, &rows);
            ASSERT_FALSE(rows.empty());
            EXPECT_NEAR(sum_seconds(rows), t.total(),
                        1e-12 * t.total() + 1e-15)
                << cfg.to_string();
        }
    }
}

TEST_F(KernelCostModelTest, BreakdownMatchesComponentBuckets)
{
    // Each row's class maps onto exactly one Fig. 15 component; summing
    // rows by destination bucket must reproduce the StepTiming fields.
    std::vector<KernelCost> rows;
    const StepTiming t =
        kernel_.evaluate(BatchWork::prefill(8192), {4, 2}, false, &rows);
    double comm = 0.0, attn = 0.0, overhead = 0.0, gemm = 0.0;
    for (const auto& r : rows) {
        if (r.klass == "collective")
            comm += r.seconds;
        else if (r.klass == "attention")
            attn += r.seconds;
        else if (r.klass == "overhead")
            overhead += r.seconds;
        else
            gemm += r.seconds;
    }
    EXPECT_NEAR(comm, t.comm, 1e-12 * t.total());
    EXPECT_NEAR(attn, t.attention, 1e-12 * t.total());
    EXPECT_NEAR(overhead, t.overhead, 1e-12 * t.total());
    EXPECT_NEAR(gemm, t.gemm, 1e-12 * t.total());
}

TEST_F(KernelCostModelTest, EmptyBatchReportsOnlyEngineOverhead)
{
    std::vector<KernelCost> rows;
    const StepTiming t = kernel_.evaluate(BatchWork{}, {1, 8}, false, &rows);
    EXPECT_DOUBLE_EQ(t.gemm, 0.0);
    EXPECT_DOUBLE_EQ(t.attention, 0.0);
    EXPECT_DOUBLE_EQ(t.comm, 0.0);
    EXPECT_GT(t.overhead, 0.0);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].kernel, "engine_overhead");
    EXPECT_DOUBLE_EQ(rows[0].seconds, t.total());
}

TEST_F(KernelCostModelTest, EveryRowHasAKnownCoefficientClass)
{
    const std::set<std::string> known = {"gemm", "attention", "norm",
                                         "collective", "overhead"};
    std::vector<KernelCost> rows;
    kernel_.evaluate(BatchWork::prefill(2048), {8, 1}, false, &rows);
    for (const auto& r : rows) {
        EXPECT_TRUE(known.count(r.klass))
            << r.kernel << " priced under unknown class " << r.klass;
        EXPECT_GE(r.seconds, 0.0) << r.kernel;
        EXPECT_GT(r.count, 0.0) << r.kernel;
    }
}

TEST_F(KernelCostModelTest, PrefillTimeMonotonicInPromptTokens)
{
    const double t1 = kernel_.prefill_time(1024, {4, 2});
    const double t2 = kernel_.prefill_time(2048, {4, 2});
    const double t3 = kernel_.prefill_time(8192, {4, 2});
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, t3);
}

TEST_F(KernelCostModelTest, DecodeTimeMonotonicInBatchAndContext)
{
    const double base = kernel_.decode_step_time(8, 1024, {1, 8});
    EXPECT_LT(base, kernel_.decode_step_time(64, 1024, {1, 8}));
    EXPECT_LT(base, kernel_.decode_step_time(8, 16384, {1, 8}));
}

TEST_F(KernelCostModelTest, SingleGpuHasNoCollectiveRows)
{
    std::vector<KernelCost> rows;
    const StepTiming t =
        kernel_.evaluate(BatchWork::prefill(2048), {1, 1}, false, &rows);
    EXPECT_DOUBLE_EQ(t.comm, 0.0);
    for (const auto& r : rows)
        EXPECT_NE(r.klass, "collective") << r.kernel;
}

TEST_F(KernelCostModelTest, TpAllReduceCarriesTable2WireVolume)
{
    // TP pays two all-reduces of the full embed[n, d] per layer; the
    // breakdown row must carry exactly 2L * the per-rank ring volume.
    const std::int64_t n = 4096;
    std::vector<KernelCost> rows;
    kernel_.evaluate(BatchWork::prefill(n), {1, 8}, false, &rows);
    const KernelCost* ar = find(rows, "tp_allreduce");
    ASSERT_NE(ar, nullptr);
    const double act_b = kernel_.options().act_bytes;
    const double tensor =
        static_cast<double>(n) * llama_.hidden_size * act_b;
    EXPECT_DOUBLE_EQ(
        ar->bytes, 2.0 * llama_.num_layers *
                       hw::CollectiveModel::all_reduce_volume(tensor, 8));
    EXPECT_EQ(find(rows, "sp_a2a_qkv"), nullptr);
    EXPECT_EQ(find(rows, "sp_allgather"), nullptr);
}

TEST_F(KernelCostModelTest, SpAllToAllCarriesTable2WireVolume)
{
    // SP moves only the head activations through two all-to-alls of
    // rows = n/SP tokens each — 1/SP of TP's per-rank volume class.
    const std::int64_t n = 4096;
    const int sp = 8;
    std::vector<KernelCost> rows;
    kernel_.evaluate(BatchWork::prefill(n), {sp, 1}, false, &rows);
    const double act_b = kernel_.options().act_bytes;
    const double rows_pg = static_cast<double>(n) / sp;
    const int rep = kv_replication(llama_, {sp, 1});

    const KernelCost* qkv = find(rows, "sp_a2a_qkv");
    ASSERT_NE(qkv, nullptr);
    const double qkv_cols =
        (llama_.q_heads + 2.0 * llama_.kv_heads * rep) * llama_.head_dim;
    EXPECT_DOUBLE_EQ(qkv->bytes,
                     llama_.num_layers *
                         hw::CollectiveModel::all_to_all_volume(
                             rows_pg * qkv_cols * act_b, sp));

    const KernelCost* o = find(rows, "sp_a2a_o");
    ASSERT_NE(o, nullptr);
    const double o_cols =
        static_cast<double>(llama_.q_heads) * llama_.head_dim;
    EXPECT_DOUBLE_EQ(o->bytes, llama_.num_layers *
                                   hw::CollectiveModel::all_to_all_volume(
                                       rows_pg * o_cols * act_b, sp));

    const KernelCost* ag = find(rows, "sp_allgather");
    ASSERT_NE(ag, nullptr);
    EXPECT_DOUBLE_EQ(ag->bytes,
                     hw::CollectiveModel::all_gather_volume(
                         static_cast<double>(n) * llama_.hidden_size * act_b,
                         sp));
    EXPECT_EQ(find(rows, "tp_allreduce"), nullptr);
}

TEST_F(KernelCostModelTest, SpMovesFewerWireBytesThanTpAtEqualWorld)
{
    // The Table 2 headline: per-rank comm volume under SP=8 is a small
    // fraction of TP=8's for the same prefill.
    const auto wire = [&](const ParallelConfig& cfg) {
        std::vector<KernelCost> rows;
        kernel_.evaluate(BatchWork::prefill(4096), cfg, false, &rows);
        double bytes = 0.0;
        for (const auto& r : rows)
            if (r.klass == "collective")
                bytes += r.bytes;
        return bytes;
    };
    EXPECT_LT(wire({8, 1}), wire({1, 8}) / 2.0);
}

TEST_F(KernelCostModelTest, PrefillAndDecodeAttentionRowsAreSeparate)
{
    std::vector<KernelCost> rows;
    kernel_.evaluate(BatchWork::prefill(2048), {1, 8}, false, &rows);
    EXPECT_NE(find(rows, "attn_prefill"), nullptr);
    EXPECT_EQ(find(rows, "attn_decode"), nullptr);

    rows.clear();
    kernel_.evaluate(BatchWork::decode(16, 2048), {1, 8}, false, &rows);
    EXPECT_EQ(find(rows, "attn_prefill"), nullptr);
    EXPECT_NE(find(rows, "attn_decode"), nullptr);

    BatchWork mixed;
    mixed.add(512, 0, true);
    mixed.add(1, 1024, false);
    rows.clear();
    kernel_.evaluate(mixed, {1, 8}, false, &rows);
    EXPECT_NE(find(rows, "attn_prefill"), nullptr);
    EXPECT_NE(find(rows, "attn_decode"), nullptr);
}

TEST_F(KernelCostModelTest, AttentionRowsMatchPerChunkReference)
{
    // The attention rows are priced from per-phase sums. Their features
    // must equal the per-chunk walk they replaced: to the bit at unit
    // feature factors (every term is an exact integer or half-integer),
    // and to 4 ulps when the factors round once per phase instead of
    // once per chunk.
    struct Chunk
    {
        std::int64_t new_tokens;
        std::int64_t past;
        bool is_prefill;
    };
    const std::vector<ParallelConfig> cfgs = {{1, 8}, {2, 4}, {8, 1}};
    for (const bool unit : {true, false}) {
        PerfOptions opts;
        if (!unit) {
            opts.swiftkv_prefill_factor = 0.6;
            opts.decode_compute_inflation = 1.5;
        }
        const KernelCostModel km(node_, llama_, coeffs_, opts);
        const double L = llama_.num_layers;
        const double b = llama_.kv_bytes_per_token_layer();
        Rng rng(unit ? 21 : 22);
        for (int it = 0; it < 200; ++it) {
            SCOPED_TRACE(::testing::Message() << unit << " iter " << it);
            const ParallelConfig cfg = cfgs[static_cast<std::size_t>(
                rng.uniform_int(0, 2))];
            std::vector<Chunk> chunks;
            for (auto i = rng.uniform_int(0, 3); i > 0; --i) {
                chunks.push_back({rng.uniform_int(1, 8192),
                                  rng.uniform_int(0, 131072), true});
            }
            for (auto i = rng.uniform_int(0, 256); i > 0; --i)
                chunks.push_back({1, rng.uniform_int(0, 131072), false});

            BatchWork work;
            double flops[2] = {0.0, 0.0};  // [prefill, decode]
            double kv[2] = {0.0, 0.0};
            for (const Chunk& c : chunks) {
                work.add(c.new_tokens, c.past, c.is_prefill);
                const double nt = static_cast<double>(c.new_tokens);
                const double past = static_cast<double>(c.past);
                const double attn = 4.0 * llama_.q_heads * llama_.head_dim *
                                    (nt * past + nt * (nt + 1.0) / 2.0);
                const double read = (past + nt / 2.0) * b;
                const int ph = c.is_prefill ? 0 : 1;
                const double f = c.is_prefill
                                     ? opts.swiftkv_prefill_factor
                                     : opts.decode_compute_inflation;
                flops[ph] += f * attn;
                kv[ph] += (c.is_prefill ? f : 1.0) * read + nt * b;
            }

            std::vector<KernelCost> rows;
            km.evaluate(work, cfg, false, &rows);
            const int g = cfg.world();
            const int rep = kv_replication(llama_, cfg);
            const char* names[2] = {"attn_prefill", "attn_decode"};
            for (int ph = 0; ph < 2; ++ph) {
                const KernelCost* row = find(rows, names[ph]);
                const std::int64_t seqs =
                    ph == 0 ? work.prefills.seqs : work.decodes.seqs;
                ASSERT_EQ(row != nullptr, seqs > 0) << names[ph];
                if (row == nullptr)
                    continue;
                const double want_flops = L * flops[ph] / g;
                const double want_bytes = L * kv[ph] * rep / g;
                if (unit) {
                    EXPECT_EQ(row->flops, want_flops) << names[ph];
                    EXPECT_EQ(row->bytes, want_bytes) << names[ph];
                } else {
                    EXPECT_DOUBLE_EQ(row->flops, want_flops) << names[ph];
                    EXPECT_DOUBLE_EQ(row->bytes, want_bytes) << names[ph];
                }
            }
        }
    }
}

TEST_F(KernelCostModelTest, SpPaddingEqualizesGemmWork)
{
    // Section 3.2.1: a 1-token batch under SP=8 is padded to 8 rows, so
    // the GEMM rows carry the same FLOPs as a real 8-token batch.
    std::vector<KernelCost> one, eight;
    kernel_.evaluate(BatchWork::decode(1, 1024), {8, 1}, false, &one);
    kernel_.evaluate(BatchWork::decode(8, 1024), {8, 1}, false, &eight);
    const KernelCost* q1 = find(one, "qkv_gemm");
    const KernelCost* q8 = find(eight, "qkv_gemm");
    ASSERT_NE(q1, nullptr);
    ASSERT_NE(q8, nullptr);
    EXPECT_DOUBLE_EQ(q1->flops, q8->flops);
}

TEST_F(KernelCostModelTest, SlicedWeightsCostMore)
{
    const auto work = BatchWork::decode(8, 2048);
    const double plain = kernel_.evaluate(work, {1, 8}, false).total();
    const double sliced = kernel_.evaluate(work, {1, 8}, true).total();
    EXPECT_GT(sliced, plain);
}

TEST_F(KernelCostModelTest, MoeEpAllToAllRowAppears)
{
    const model::ModelConfig moe = model::llama_17b_16e();
    KernelCostModel km(node_, moe,
                       hw::derive_kernel_coeffs(node_.gpu, node_.link));
    std::vector<KernelCost> rows;
    const StepTiming ep8 =
        km.evaluate(BatchWork::prefill(2048), {4, 2, 8}, false, &rows);
    EXPECT_NE(find(rows, "ep_a2a"), nullptr);
    const StepTiming ep1 = km.evaluate(BatchWork::prefill(2048), {4, 2, 1});
    EXPECT_GT(ep8.comm, ep1.comm);
}

TEST_F(KernelCostModelTest, CoefficientsScaleReportedCost)
{
    hw::KernelCoeffs doubled = coeffs_;
    doubled.gemm.beta *= 2.0;
    doubled.gemm.gamma *= 2.0;
    doubled.attention.gamma *= 2.0;
    KernelCostModel slower(node_, llama_, doubled);
    const auto work = BatchWork::decode(32, 4096);
    EXPECT_GT(slower.evaluate(work, {1, 8}).total(),
              kernel_.evaluate(work, {1, 8}).total());
}

TEST_F(KernelCostModelTest, ComponentRemovalKnobsZeroTheirRows)
{
    PerfOptions opts;
    opts.comm_scale = 0.0;
    opts.attention_scale = 0.0;
    opts.engine_overhead = false;
    KernelCostModel stripped(node_, llama_, coeffs_, opts);
    std::vector<KernelCost> rows;
    const StepTiming t =
        stripped.evaluate(BatchWork::prefill(4096), {4, 2}, false, &rows);
    EXPECT_DOUBLE_EQ(t.comm, 0.0);
    EXPECT_DOUBLE_EQ(t.attention, 0.0);
    EXPECT_DOUBLE_EQ(t.overhead, 0.0);
    EXPECT_GT(t.gemm, 0.0);
    EXPECT_NEAR(sum_seconds(rows), t.total(), 1e-12 * t.total());
}

} // namespace
} // namespace shiftpar::parallel
