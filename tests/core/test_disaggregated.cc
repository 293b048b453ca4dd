/** @file Tests for the disaggregated prefill/decode baseline. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/test_helpers.h"
#include "core/disaggregated.h"
#include "model/presets.h"

namespace shiftpar::core {
namespace {

using shiftpar::testing::test_node;

TEST(Disaggregated, RejectsOversizedPools)
{
    DisaggregatedOptions opts;
    opts.prefill_gpus = 6;
    opts.decode_gpus = 6;
    EXPECT_DEATH(DisaggregatedSystem(model::llama_70b(), test_node(), opts),
                 "exceed");
}

TEST(Disaggregated, TransferDelayScalesWithContext)
{
    DisaggregatedSystem sys(model::llama_70b(), test_node());
    const double small = sys.transfer_delay(1000);
    const double large = sys.transfer_delay(100000);
    EXPECT_GT(large, 50.0 * small);
    // 100k tokens * 327 KB/token ~ 32.7 GB over ~630 GB/s: tens of ms.
    EXPECT_GT(large, 0.02);
    EXPECT_LT(large, 0.2);
}

TEST(Disaggregated, AllRequestsFinishWithSaneMetrics)
{
    DisaggregatedSystem sys(model::llama_70b(), test_node());
    std::vector<engine::RequestSpec> reqs;
    for (int i = 0; i < 20; ++i)
        reqs.push_back({0.3 * i, 2000 + 100 * i, 50});
    const auto met = sys.run_workload(reqs);
    ASSERT_EQ(met.requests().size(), reqs.size());
    for (const auto& r : met.requests()) {
        EXPECT_GT(r.ttft, 0.0);
        EXPECT_GT(r.tpot, 0.0);
        EXPECT_GT(r.completion, r.ttft);
    }
}

TEST(Disaggregated, SingleTokenRequestsFinishOnPrefillPool)
{
    DisaggregatedSystem sys(model::llama_70b(), test_node());
    const auto met = sys.run_workload({{0.0, 1024, 1}});
    ASSERT_EQ(met.requests().size(), 1u);
    EXPECT_DOUBLE_EQ(met.requests()[0].tpot, 0.0);
    EXPECT_GT(met.requests()[0].completion, 0.0);
}

TEST(Disaggregated, CompletionIncludesTransferDelay)
{
    // One lone request: completion must exceed the colocated equivalent by
    // at least the transfer delay (same pools, no queueing).
    DisaggregatedSystem sys(model::llama_70b(), test_node());
    const std::vector<engine::RequestSpec> one = {{0.0, 8192, 64}};
    const auto disagg = sys.run_workload(one);

    Deployment colo;
    colo.model = model::llama_70b();
    colo.strategy = parallel::Strategy::kTp;
    colo.tp = 4;  // prefill-pool-sized colocated engine
    const auto met = run_deployment(colo, one);

    EXPECT_GT(disagg.requests()[0].completion,
              met.requests()[0].completion - 1e-9);
}

TEST(Disaggregated, DecodePoolIsolationKeepsTpotSmooth)
{
    // A heavy prefill storm arrives mid-decode; the disaggregated decode
    // pool must not see its p99 TPOT degrade versus its p50 as much as a
    // colocated deployment of the same total GPUs does.
    std::vector<engine::RequestSpec> reqs;
    reqs.push_back({0.0, 2000, 400});  // long decoder
    for (int i = 0; i < 24; ++i)
        reqs.push_back({2.0 + 0.05 * i, 16000, 4});  // prefill storm

    DisaggregatedSystem sys(model::llama_70b(), test_node());
    const auto disagg = sys.run_workload(reqs);

    Deployment colo;
    colo.model = model::llama_70b();
    colo.strategy = parallel::Strategy::kTp;
    const auto met = run_deployment(colo, reqs);

    const double disagg_jitter =
        disagg.tpot().percentile(99) / disagg.tpot().percentile(50);
    const double colo_jitter =
        met.tpot().percentile(99) / met.tpot().percentile(50);
    EXPECT_LT(disagg_jitter, colo_jitter);
}

TEST(Disaggregated, StepTelemetryCountsBothPools)
{
    DisaggregatedSystem sys(model::llama_70b(), test_node());
    const auto met = sys.run_workload({{0.0, 1000, 8}, {0.1, 1000, 8}});
    EXPECT_GT(met.sp_steps() + met.tp_steps(), 2);
    EXPECT_GT(met.total_tokens(), 2000);
}

TEST(Disaggregated, ThroughputBinWidthIsHonored)
{
    DisaggregatedOptions opts;
    opts.throughput_bin = 0.25;
    DisaggregatedSystem sys(model::llama_70b(), test_node(), opts);
    const auto met = sys.run_workload({{0.0, 1000, 8}});
    EXPECT_DOUBLE_EQ(met.throughput().bin_seconds(), 0.25);
}

/**
 * A node whose fabric is orders of magnitude slower than its compute:
 * single-GPU pools (no collectives touch the link) make transfer
 * queueing dominate every timing below, so the assertions are exact-ish.
 */
hw::Node
slow_fabric_node()
{
    hw::Node node = test_node();
    node.link.bw = 1.0e7;  // ~seconds per multi-MB KV handoff
    node.link.latency = 0.0;
    node.link.efficiency = 1.0;
    return node;
}

DisaggregatedOptions
tiny_pools()
{
    DisaggregatedOptions opts;
    opts.prefill_gpus = 1;
    opts.decode_gpus = 1;
    return opts;
}

TEST(DisaggregatedOnline, OverlappingTransfersQueueOnTheFabric)
{
    using shiftpar::testing::tiny_model;
    DisaggregatedSystem sys(tiny_model(), slow_fabric_node(), tiny_pools());
    const double delta = sys.transfer_delay(2049);
    ASSERT_GT(delta, 1.0);  // the fabric really is the bottleneck

    // Two same-instant requests prefill back to back in well under a
    // second, so their KV handoffs overlap and must serialize FIFO.
    const auto met =
        sys.run_workload({{0.0, 2048, 16}, {0.0, 2048, 16}});
    ASSERT_EQ(met.requests().size(), 2u);
    EXPECT_EQ(sys.stats().transfers, 2);
    EXPECT_NEAR(sys.stats().link_busy_seconds, 2.0 * delta, 0.01 * delta);

    // The second decode cannot start until the link frees: completions
    // are one full transfer apart.
    const double gap = std::abs(met.requests()[1].completion +
                                met.requests()[1].arrival -
                                met.requests()[0].completion -
                                met.requests()[0].arrival);
    EXPECT_GT(gap, 0.9 * delta);
}

TEST(DisaggregatedOnline, SaturatedDecodePoolBackpressuresPrefill)
{
    using shiftpar::testing::tiny_model;
    auto opts = tiny_pools();
    // Budget fits exactly one request's context (2048 + 16 tokens).
    opts.max_inflight_decode_tokens = 2100;
    DisaggregatedSystem sys(tiny_model(), slow_fabric_node(), opts);
    const double delta = sys.transfer_delay(2049);

    const auto met =
        sys.run_workload({{0.0, 2048, 16}, {0.0, 2048, 16}});
    ASSERT_EQ(met.requests().size(), 2u);
    EXPECT_EQ(sys.stats().stalled_admissions, 1);
    EXPECT_GT(sys.stats().stall_seconds, 0.9 * delta);

    // The stalled request's queueing delay (and hence TTFT) includes the
    // admission stall: it could not even start prefilling before the
    // first request cleared the decode pool, one transfer later.
    const auto& stalled = met.requests()[0].id == 1 ? met.requests()[0]
                                                    : met.requests()[1];
    EXPECT_GT(stalled.wait, 0.9 * delta);
    EXPECT_GT(stalled.ttft, 0.9 * delta);
}

TEST(DisaggregatedOnline, CancelMidTransferReleasesTheLink)
{
    using shiftpar::testing::tiny_model;
    const std::vector<engine::RequestSpec> reqs = {{0.0, 2048, 16},
                                                   {0.0, 2048, 16}};

    DisaggregatedSystem baseline(tiny_model(), slow_fabric_node(),
                                 tiny_pools());
    const auto met_base = baseline.run_workload(reqs);
    const double delta = baseline.transfer_delay(2049);
    double base_finish_1 = 0.0;
    for (const auto& r : met_base.requests()) {
        if (r.id == 1)
            base_finish_1 = r.arrival + r.completion;
    }

    // Abort request 0 while its KV handoff occupies the fabric (prefill
    // of 2048 tokens finishes in far under a second; the transfer then
    // holds the link for >1 s). Request 1's queued handoff must shift
    // earlier — the in-flight transfer event is released, not leaked.
    DisaggregatedSystem sys(tiny_model(), slow_fabric_node(), tiny_pools());
    sys.schedule_cancel(1.0, 0);
    const auto met = sys.run_workload(reqs);

    EXPECT_EQ(sys.stats().cancelled, 1);
    EXPECT_EQ(sys.stats().transfers_cancelled, 1);
    EXPECT_EQ(sys.stats().transfers, 1);
    ASSERT_EQ(met.requests().size(), 1u);
    EXPECT_EQ(met.requests()[0].id, 1);
    const double finish_1 =
        met.requests()[0].arrival + met.requests()[0].completion;
    // The freed link saves most of a transfer slot.
    EXPECT_LT(finish_1, base_finish_1 - 0.5 * delta);
}

TEST(DisaggregatedOnline, CancelFreesTheAdmissionBudget)
{
    using shiftpar::testing::tiny_model;
    auto opts = tiny_pools();
    opts.max_inflight_decode_tokens = 2100;
    DisaggregatedSystem sys(tiny_model(), slow_fabric_node(), opts);
    // Request 1 stalls behind request 0's budget; aborting request 0
    // (whatever stage it is in at t=1) must let request 1 through.
    sys.schedule_cancel(1.0, 0);
    const auto met =
        sys.run_workload({{0.0, 2048, 16}, {0.0, 2048, 16}});

    EXPECT_EQ(sys.stats().cancelled, 1);
    EXPECT_EQ(sys.stats().stalled_admissions, 1);
    ASSERT_EQ(met.requests().size(), 1u);
    EXPECT_EQ(met.requests()[0].id, 1);
    // Admission resumed at the cancel, not after a full pipeline pass.
    EXPECT_LT(met.requests()[0].wait, 1.5);
}

TEST(DisaggregatedOnline, LinkFailureAbortsAndResendsTheHandoff)
{
    using shiftpar::testing::tiny_model;
    const std::vector<engine::RequestSpec> one = {{0.0, 2048, 16}};

    DisaggregatedSystem base(tiny_model(), slow_fabric_node(), tiny_pools());
    const auto healthy = base.run_workload(one);
    ASSERT_EQ(healthy.requests().size(), 1u);
    const double delta = base.transfer_delay(2049);
    ASSERT_GT(delta, 1.0);
    // Prefill ends well before t=1 and the handoff occupies the slow
    // fabric for > 1 s, so an outage at t=1 lands mid-transfer.
    ASSERT_LT(healthy.requests()[0].ttft, 1.0);

    DisaggregatedSystem sys(tiny_model(), slow_fabric_node(), tiny_pools());
    sys.schedule_link_failure(1.0, 3.0);
    const auto met = sys.run_workload(one);

    EXPECT_EQ(sys.stats().link_failures, 1);
    EXPECT_EQ(sys.stats().transfers_resent, 1);
    // Partial KV is useless: the handoff restarts whole after recovery,
    // and the request still completes exactly once.
    ASSERT_EQ(met.requests().size(), 1u);
    EXPECT_DOUBLE_EQ(met.requests()[0].ttft, healthy.requests()[0].ttft);
    EXPECT_GT(met.requests()[0].completion,
              healthy.requests()[0].completion + 1.0);
}

TEST(DisaggregatedOnline, PrefillDuringOutageQueuesHandoffForRecovery)
{
    using shiftpar::testing::tiny_model;
    DisaggregatedSystem sys(tiny_model(), slow_fabric_node(), tiny_pools());
    // The link is down from the start; prefill finishes during the outage,
    // so the handoff waits for the recovery instant (nothing to abort).
    sys.schedule_link_failure(0.0, 10.0);
    const auto met = sys.run_workload({{0.0, 2048, 16}});

    EXPECT_EQ(sys.stats().link_failures, 1);
    EXPECT_EQ(sys.stats().transfers_resent, 0);
    EXPECT_EQ(sys.stats().transfers, 1);
    ASSERT_EQ(met.requests().size(), 1u);
    EXPECT_GT(met.requests()[0].completion, 10.0);
}

} // namespace
} // namespace shiftpar::core
