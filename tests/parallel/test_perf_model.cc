/**
 * @file
 * Tests for the analytical performance model: the Table 1 / Table 2
 * orderings must hold as structural properties of the model, not just at
 * calibrated operating points.
 */

#include <gtest/gtest.h>

#include "hw/presets.h"
#include "model/presets.h"
#include "parallel/perf_model.h"

namespace shiftpar::parallel {
namespace {

class PerfModelTest : public ::testing::Test
{
  protected:
    hw::Node node_ = hw::h200_node();
    model::ModelConfig llama_ = model::llama_70b();
    PerfModel perf_{node_, llama_};
};

TEST_F(PerfModelTest, EmptyBatchCostsOnlyOverhead)
{
    const StepTiming t = perf_.evaluate(BatchWork{}, {1, 8});
    EXPECT_DOUBLE_EQ(t.gemm, 0.0);
    EXPECT_DOUBLE_EQ(t.attention, 0.0);
    EXPECT_DOUBLE_EQ(t.comm, 0.0);
    EXPECT_GT(t.overhead, 0.0);
}

TEST_F(PerfModelTest, ComponentsNonNegativeAndSumToTotal)
{
    const auto work = BatchWork::prefill(4096);
    const StepTiming t = perf_.evaluate(work, {4, 2});
    EXPECT_GE(t.gemm, 0.0);
    EXPECT_GE(t.attention, 0.0);
    EXPECT_GE(t.comm, 0.0);
    EXPECT_GE(t.overhead, 0.0);
    EXPECT_DOUBLE_EQ(t.total(), t.gemm + t.attention + t.comm + t.overhead);
}

TEST_F(PerfModelTest, SingleGpuHasNoComm)
{
    const StepTiming t = perf_.evaluate(BatchWork::prefill(2048), {1, 1});
    EXPECT_DOUBLE_EQ(t.comm, 0.0);
}

TEST_F(PerfModelTest, TpPrefillParallelizesCompute)
{
    const double t1 = perf_.prefill_time(4096, {1, 1});
    const double t8 = perf_.prefill_time(4096, {1, 8});
    EXPECT_GT(t1, 4.0 * t8);  // near-linear minus comm/overhead
}

TEST_F(PerfModelTest, SpPrefillBeatsTpPrefill)
{
    // Table 1: SP has the best TTFT — same compute sharding, cheaper
    // collectives (all-to-all of 1/SP vs all-reduce of the full embedding).
    const double tp = perf_.prefill_time(4096, {1, 8});
    const double sp = perf_.prefill_time(4096, {8, 1});
    EXPECT_LT(sp, tp);
}

TEST_F(PerfModelTest, SpPrefillCommSmallerThanTp)
{
    const auto work = BatchWork::prefill(8192);
    const StepTiming tp = perf_.evaluate(work, {1, 8});
    const StepTiming sp = perf_.evaluate(work, {8, 1});
    EXPECT_LT(sp.comm, tp.comm / 2.0);
}

TEST_F(PerfModelTest, TpDecodeBeatsSpDecode)
{
    // Table 1: SP has the worst TPOT — decode streams the full weight
    // shard (weights replicated across SP), TP streams 1/8 of it.
    const double tp = perf_.decode_step_time(1, 4096, {1, 8});
    const double sp = perf_.decode_step_time(1, 4096, {8, 1});
    EXPECT_LT(tp, sp);
    EXPECT_GT(sp / tp, 1.5);
}

TEST_F(PerfModelTest, DpDecodeNearWorst)
{
    // DP decode = single GPU: full weight stream, like SP but without the
    // all-to-all latency.
    const double dp = perf_.decode_step_time(1, 4096, {1, 1});
    const double tp = perf_.decode_step_time(1, 4096, {1, 8});
    const double sp = perf_.decode_step_time(1, 4096, {8, 1});
    EXPECT_GT(dp, tp);
    EXPECT_LT(dp, sp);
}

TEST_F(PerfModelTest, LargeBatchDecodeFavorsSp)
{
    // Algorithm 2's premise: beyond a crossover batch size the base (SP)
    // configuration is faster than full TP.
    const double tp = perf_.decode_step_time(4096, 2048, {1, 8});
    const double sp = perf_.decode_step_time(4096, 2048, {8, 1});
    EXPECT_LT(sp, tp);
}

TEST_F(PerfModelTest, SpPaddingPenalizesSmallBatches)
{
    // Section 3.2.1: batch 9 on SP=8 pads to 16 — same cost as batch 16.
    const auto t9 = perf_.evaluate(BatchWork::decode(9, 1024), {8, 1});
    const auto t16 = perf_.evaluate(BatchWork::decode(16, 1024), {8, 1});
    // GEMM time identical because padded tokens compute too.
    EXPECT_DOUBLE_EQ(t9.gemm, t16.gemm);
}

TEST_F(PerfModelTest, CommVolumeIndependentOfTpDegree)
{
    // Table 2: TP's per-rank comm volume does not shrink with degree, so
    // comm per layer stays ~flat while compute shrinks.
    const auto work = BatchWork::prefill(8192);
    const auto t2 = perf_.evaluate(work, {1, 2});
    const auto t8 = perf_.evaluate(work, {1, 8});
    EXPECT_GT(t8.comm, 0.8 * t2.comm);
    // Comm-to-compute ratio grows with TP degree.
    EXPECT_GT(t8.comm / t8.gemm, t2.comm / t2.gemm);
}

TEST_F(PerfModelTest, SpCommRatioGrowsMuchSlowerThanTp)
{
    // Table 2: SP's per-rank comm volume scales ~1/SP so its
    // comm-to-compute ratio is near-constant (it grows only by the
    // (P-1)/P wire factor), while TP's ratio grows linearly in degree.
    const auto work = BatchWork::prefill(8192);
    const auto s2 = perf_.evaluate(work, {2, 1});
    const auto s8 = perf_.evaluate(work, {8, 1});
    const auto t2 = perf_.evaluate(work, {1, 2});
    const auto t8 = perf_.evaluate(work, {1, 8});
    EXPECT_LT(s8.comm, s2.comm);  // SP comm volume shrinks with degree
    EXPECT_GT(t8.comm, 0.8 * t2.comm);  // TP comm volume does not
    const double sp_growth = (s8.comm / s8.gemm) / (s2.comm / s2.gemm);
    const double tp_growth = (t8.comm / t8.gemm) / (t2.comm / t2.gemm);
    // Ideal values: SP -> (7/8)/(1/2) = 1.75, TP -> 4x2(7/8)/(1/2) ~ 7.
    EXPECT_LT(sp_growth, 2.5);
    EXPECT_GT(tp_growth, 2.0 * sp_growth);
}

TEST_F(PerfModelTest, OverheadGrowsWithGroupSize)
{
    const auto w = BatchWork::decode(1, 128);
    EXPECT_LT(perf_.evaluate(w, {1, 1}).overhead,
              perf_.evaluate(w, {1, 8}).overhead);
}

TEST_F(PerfModelTest, SlicedShiftStepIsSlower)
{
    // Section 3.3.2: on-the-fly slicing pays a transpose penalty.
    const auto w = BatchWork::decode(4, 2048);
    const double plain = perf_.evaluate(w, {1, 8}, false).total();
    const double sliced = perf_.evaluate(w, {1, 8}, true).total();
    EXPECT_GT(sliced, plain);
}

TEST_F(PerfModelTest, AttentionGrowsWithContext)
{
    const double short_ctx = perf_.decode_step_time(64, 1024, {1, 8});
    const double long_ctx = perf_.decode_step_time(64, 65536, {1, 8});
    EXPECT_GT(long_ctx, 2.0 * short_ctx);
}

TEST_F(PerfModelTest, SwiftKvReducesPrefillOnly)
{
    PerfOptions opts;
    opts.swiftkv_prefill_factor = 0.55;
    const PerfModel fast(node_, llama_, opts);
    EXPECT_LT(fast.prefill_time(8192, {8, 1}),
              perf_.prefill_time(8192, {8, 1}));
    // Decode steps are untouched.
    EXPECT_DOUBLE_EQ(fast.decode_step_time(8, 2048, {1, 8}),
                     perf_.decode_step_time(8, 2048, {1, 8}));
}

TEST_F(PerfModelTest, DecodeInflationSlowsLargeDecodeBatches)
{
    PerfOptions opts;
    opts.decode_compute_inflation = 2.0;
    const PerfModel spec(node_, llama_, opts);
    // At large batch (compute-bound) the inflation must show up.
    EXPECT_GT(spec.decode_step_time(4096, 2048, {8, 1}),
              perf_.decode_step_time(4096, 2048, {8, 1}));
}

TEST_F(PerfModelTest, MoeActiveParamsMakeStepsCheaper)
{
    const model::ModelConfig moe = model::qwen_30b_a3b();
    const model::ModelConfig dense = model::qwen_32b();
    const PerfModel pm_moe(node_, moe);
    const PerfModel pm_dense(node_, dense);
    // 3B active vs 32B dense: prefill far cheaper.
    EXPECT_LT(pm_moe.prefill_time(8192, {8, 1}),
              pm_dense.prefill_time(8192, {8, 1}) / 2.0);
}

TEST_F(PerfModelTest, KvReplicationInflatesAttentionTraffic)
{
    const model::ModelConfig q30 = model::qwen_30b_a3b();  // 4 KV heads
    const PerfModel pm(node_, q30);
    // 8-way group replicates KV 2x vs a 4-way group: per-GPU attention
    // traffic per step should not improve 2x going 4 -> 8 ranks.
    const auto w = BatchWork::decode(64, 8192);
    const double t4 = pm.evaluate(w, {4, 1}).attention;
    const double t8 = pm.evaluate(w, {8, 1}).attention;
    EXPECT_GT(t8, t4 * 0.8);  // replication cancels the extra sharding
}

TEST_F(PerfModelTest, ConfigLargerThanNodeRejected)
{
    EXPECT_DEATH(perf_.prefill_time(128, {8, 2}), "exceeds node");
}

TEST(BatchWork, Helpers)
{
    const auto p = BatchWork::prefill(100);
    EXPECT_EQ(p.prefills, (model::PhaseWork{1, 100, 100 * 101 / 2, 100}));
    EXPECT_EQ(p.decodes, model::PhaseWork{});
    EXPECT_EQ(p.total_new_tokens(), 100);

    const auto d = BatchWork::decode(5, 300);
    EXPECT_EQ(d.num_seqs(), 5);
    EXPECT_EQ(d.total_new_tokens(), 5);
    EXPECT_EQ(d.prefills, model::PhaseWork{});
    EXPECT_EQ(d.decodes, (model::PhaseWork{5, 5, 5 * 301, 5 * 601}));
}

TEST(BatchWork, DecodeSumsMatchOneAddPerSequence)
{
    for (const std::int64_t n : {0, 1, 7, 4096}) {
        for (const std::int64_t ctx : {0, 1, 300, 131072}) {
            BatchWork added;
            for (std::int64_t i = 0; i < n; ++i)
                added.add(1, ctx, false);
            const BatchWork direct = BatchWork::decode(n, ctx);
            EXPECT_EQ(direct.decodes, added.decodes) << n << "@" << ctx;
            EXPECT_EQ(direct.prefills, added.prefills) << n << "@" << ctx;
        }
    }
}

TEST(BatchWorkDeathTest, AddRejectsEmptyChunksAndNegativePast)
{
    BatchWork w;
    EXPECT_DEATH(w.add(0, 10, true), "new_tokens >= 1");
    EXPECT_DEATH(w.add(-1, 10, false), "new_tokens >= 1");
    EXPECT_DEATH(w.add(4, -1, true), "past >= 0");
}

TEST(StepTiming, PlusEquals)
{
    StepTiming a{1.0, 2.0, 3.0, 4.0};
    const StepTiming b{0.5, 0.5, 0.5, 0.5};
    a += b;
    EXPECT_DOUBLE_EQ(a.total(), 12.0);
    EXPECT_DOUBLE_EQ(a.gemm, 1.5);
}

} // namespace
} // namespace shiftpar::parallel
