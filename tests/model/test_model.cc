/** @file Unit tests for model configs, presets, and FLOP/byte counters. */

#include <gtest/gtest.h>

#include "model/flops.h"
#include "model/presets.h"

namespace shiftpar::model {
namespace {

TEST(DTypes, Sizes)
{
    EXPECT_DOUBLE_EQ(dtype_bytes(DType::kFp8), 1.0);
    EXPECT_DOUBLE_EQ(dtype_bytes(DType::kFp16), 2.0);
    EXPECT_DOUBLE_EQ(dtype_bytes(DType::kBf16), 2.0);
    EXPECT_STREQ(dtype_name(DType::kFp8), "fp8");
}

TEST(Presets, Table4Structure)
{
    const ModelConfig l70 = llama_70b();
    EXPECT_EQ(l70.num_layers, 80);
    EXPECT_EQ(l70.hidden_size, 8192);
    EXPECT_EQ(l70.q_heads, 64);
    EXPECT_EQ(l70.kv_heads, 8);
    EXPECT_FALSE(l70.is_moe());

    const ModelConfig q32 = qwen_32b();
    EXPECT_EQ(q32.num_layers, 64);
    EXPECT_EQ(q32.hidden_size, 5120);
    EXPECT_EQ(q32.q_heads, 64);
    EXPECT_EQ(q32.kv_heads, 8);

    const ModelConfig l17 = llama_17b_16e();
    EXPECT_EQ(l17.num_layers, 48);
    EXPECT_EQ(l17.q_heads, 40);
    EXPECT_TRUE(l17.is_moe());
    EXPECT_EQ(l17.num_experts, 16);

    const ModelConfig q30 = qwen_30b_a3b();
    EXPECT_EQ(q30.kv_heads, 4);  // the KV-replication stress case
    EXPECT_TRUE(q30.is_moe());
}

TEST(Presets, Table4ParameterCounts)
{
    EXPECT_NEAR(llama_70b().total_params(), 70.6e9, 1e8);
    EXPECT_NEAR(qwen_32b().total_params(), 32.8e9, 1e8);
    EXPECT_NEAR(llama_17b_16e().total_params(), 109e9, 1e9);
    EXPECT_NEAR(llama_17b_16e().active_params(), 17e9, 1e9);
    EXPECT_NEAR(qwen_30b_a3b().total_params(), 30.5e9, 1e9);
    EXPECT_NEAR(qwen_30b_a3b().active_params(), 3.3e9, 1e9);
}

TEST(ModelConfig, DenseActiveEqualsTotal)
{
    const ModelConfig m = llama_70b();
    EXPECT_DOUBLE_EQ(m.active_params(), m.total_params());
}

TEST(ModelConfig, MoeActiveBelowTotal)
{
    const ModelConfig m = qwen_30b_a3b();
    EXPECT_LT(m.active_params(), m.total_params());
}

TEST(ModelConfig, AnalyticCountsWithoutOverride)
{
    ModelConfig m = llama_70b();
    m.params_total_override = 0.0;
    // Analytic Llama-70B: ~69.5B (attn + MLP + embeddings); sanity-band.
    EXPECT_GT(m.total_params(), 65e9);
    EXPECT_LT(m.total_params(), 75e9);
}

TEST(ModelConfig, WeightBytesFollowDtype)
{
    ModelConfig m = llama_70b();
    const double fp8 = m.weight_bytes();
    m.weight_dtype = DType::kFp16;
    EXPECT_DOUBLE_EQ(m.weight_bytes(), 2.0 * fp8);
}

TEST(ModelConfig, KvBytesPerToken)
{
    const ModelConfig m = llama_70b();  // FP16 KV default
    // 2 (K and V) * 8 heads * 128 dims * 2 bytes = 4096 B per layer.
    EXPECT_DOUBLE_EQ(m.kv_bytes_per_token_layer(), 4096.0);
    EXPECT_DOUBLE_EQ(m.kv_bytes_per_token(), 4096.0 * 80);
}

TEST(ModelConfig, KvHeadBytesHelperIsTheSharedUnit)
{
    // kv_head_bytes_per_token is the single source of truth for KV sizing:
    // capacity accounting (kv_bytes_per_token_layer) and migration costing
    // (kvcache::switch_cost_bytes) must both decompose into it exactly.
    const ModelConfig m = llama_70b();
    EXPECT_DOUBLE_EQ(kv_head_bytes_per_token(m.head_dim, m.kv_dtype),
                     2.0 * m.head_dim * dtype_bytes(m.kv_dtype));
    EXPECT_DOUBLE_EQ(m.kv_bytes_per_token_layer(),
                     m.kv_heads *
                         kv_head_bytes_per_token(m.head_dim, m.kv_dtype));
    // And per dtype: FP8 KV heads are half the FP16 ones.
    EXPECT_DOUBLE_EQ(kv_head_bytes_per_token(128, DType::kFp8),
                     kv_head_bytes_per_token(128, DType::kFp16) / 2.0);
}

TEST(Flops, ActivationBytesUseBf16Width)
{
    // layer_activation_bytes routes through the shared dtype table rather
    // than a hard-coded byte count.
    const ModelConfig m = llama_70b();
    EXPECT_DOUBLE_EQ(layer_activation_bytes(m, 3.0),
                     8.0 * 3.0 * m.hidden_size * dtype_bytes(DType::kBf16));
}

TEST(ModelConfig, Fp8KvHalvesCacheFootprint)
{
    ModelConfig m = qwen_32b();
    const double fp16 = m.kv_bytes_per_token();
    m.kv_dtype = DType::kFp8;
    EXPECT_DOUBLE_EQ(m.kv_bytes_per_token(), fp16 / 2.0);
}

TEST(ModelConfig, ValidateRejectsBadGqa)
{
    ModelConfig m = llama_70b();
    m.kv_heads = 7;  // 64 % 7 != 0
    EXPECT_DEATH(m.validate(), "multiple of kv_heads");
}

TEST(Flops, QkvAccountsForGqa)
{
    const ModelConfig m = llama_70b();
    // (64 + 2*8) heads * 128 = 10240 output dims.
    EXPECT_DOUBLE_EQ(qkv_flops(m, 1.0), 2.0 * 8192 * 10240);
}

TEST(Flops, GemmScalesLinearlyInTokens)
{
    const ModelConfig m = qwen_32b();
    EXPECT_DOUBLE_EQ(layer_gemm_flops(m, 100.0),
                     100.0 * layer_gemm_flops(m, 1.0));
}

TEST(Flops, CausalAttentionExactSum)
{
    const ModelConfig m = llama_70b();
    // 3 new tokens after 10 cached: attends 11 + 12 + 13 = 36 keys.
    BatchWork w;
    w.add(3, 10, true);
    const double per_pair = 4.0 * m.q_heads * m.head_dim;
    EXPECT_DOUBLE_EQ(attn_flops(m, w.prefills), per_pair * 36.0);
}

TEST(Flops, DecodeAttentionReadsFullContext)
{
    const ModelConfig m = llama_70b();
    BatchWork w;
    w.add(1, 1000, false);
    EXPECT_DOUBLE_EQ(kv_read_bytes(m, w.decodes),
                     1000.5 * m.kv_bytes_per_token_layer());
    w.add(4, 0, true);
    EXPECT_DOUBLE_EQ(kv_write_bytes(m, w.prefills),
                     4.0 * m.kv_bytes_per_token_layer());
}

TEST(Flops, DenseWeightReadIsBatchInvariant)
{
    const ModelConfig m = llama_70b();
    EXPECT_DOUBLE_EQ(layer_weight_read_bytes(m, 1.0),
                     layer_weight_read_bytes(m, 1000.0));
}

TEST(Flops, MoeWeightReadGrowsWithBatchUpToAllExperts)
{
    const ModelConfig m = qwen_30b_a3b();
    const double one = layer_weight_read_bytes(m, 1.0);
    const double big = layer_weight_read_bytes(m, 100000.0);
    EXPECT_LT(one, big);
    // A huge batch touches every expert: equals the full dense read.
    ModelConfig dense_equiv = m;
    const double all = m.attn_params_per_layer() +
                       static_cast<double>(m.hidden_size) * m.num_experts +
                       3.0 * static_cast<double>(m.hidden_size) *
                           m.intermediate_size * m.num_experts;
    EXPECT_NEAR(big, all * dtype_bytes(m.weight_dtype), all * 1e-6);
    (void)dense_equiv;
}

TEST(Flops, MoeMlpUsesActiveExpertsOnly)
{
    const ModelConfig m = qwen_30b_a3b();
    // Active MLP params per layer << total MLP params per layer.
    EXPECT_LT(m.mlp_active_params_per_layer(),
              m.mlp_params_per_layer() / 4.0);
    EXPECT_DOUBLE_EQ(mlp_flops(m, 2.0),
                     2.0 * 2.0 * m.mlp_active_params_per_layer());
}

TEST(Flops, LmHeadCountsSampledPositions)
{
    const ModelConfig m = qwen_32b();
    EXPECT_DOUBLE_EQ(lm_head_flops(m, 3.0),
                     2.0 * 3.0 * m.hidden_size * m.vocab_size);
}

} // namespace
} // namespace shiftpar::model
