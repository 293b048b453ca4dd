/**
 * @file
 * Proof that the discrete-event cluster replay is bit-identical to the
 * historical lockstep replay.
 *
 * `Router::run_workload` now drives every replica as a `sim::Component`
 * on one event queue. For single-engine and pure-DP deployments (no
 * migration) that must change *nothing*: the same requests take the same
 * steps at the same times on the same replicas. This test replays the
 * same workload both ways — through the cluster core and through the
 * pre-refactor lockstep loop (advance everyone to each arrival, submit,
 * drain), which survives as `Router::run_until`/`submit`/`drain` — and
 * requires exact equality of every request record, every engine's step
 * sequence, and the serialized run report, byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/test_helpers.h"
#include "engine/router.h"
#include "obs/report_json.h"

namespace shiftpar::engine {
namespace {

using shiftpar::testing::make_engine;
using shiftpar::testing::StepLog;
using shiftpar::testing::tiny_model;

/** A deterministic mixed workload: ragged prompts, bursts, stragglers. */
std::vector<RequestSpec>
mixed_workload(int n)
{
    std::vector<RequestSpec> reqs;
    for (int i = 0; i < n; ++i) {
        RequestSpec s;
        s.arrival = 0.05 * i + (i % 7 == 0 ? 0.0 : 0.01 * (i % 3));
        s.prompt_tokens = 300 + 137 * (i % 11);
        s.output_tokens = 8 + 19 * (i % 5);
        reqs.push_back(s);
    }
    // A same-instant burst exercises event tie-breaking.
    for (int i = 0; i < 6; ++i)
        reqs.push_back({1.0, 2048 + 64 * i, 32});
    return reqs;
}

/** Replicas whose steps are published to `log` under ids 0..count-1. */
std::vector<std::unique_ptr<Engine>>
build_replicas(int count, int tp, StepLog& log)
{
    std::vector<std::unique_ptr<Engine>> engines;
    for (int i = 0; i < count; ++i) {
        EngineConfig cfg;
        cfg.base = {1, tp};
        cfg.trace = &log;
        cfg.trace_id = log.register_engine({});
        engines.push_back(make_engine(tiny_model(), cfg));
    }
    return engines;
}

/** The pre-refactor lockstep replay, verbatim. */
Metrics
lockstep_replay(Router& router, const std::vector<RequestSpec>& workload)
{
    std::vector<RequestSpec> sorted = workload;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const RequestSpec& a, const RequestSpec& b) {
                         return a.arrival < b.arrival;
                     });
    RequestId id = 0;
    for (const auto& spec : sorted) {
        router.run_until(spec.arrival);
        router.submit(spec, id++);
    }
    router.drain();
    return router.merged_metrics();
}

/**
 * The cluster and lockstep paths interleave DP replicas' steps
 * differently, so step sequences are compared per engine.
 */
void
expect_identical(const Metrics& a, const StepLog& a_log, const Metrics& b,
                 const StepLog& b_log, int engines)
{
    ASSERT_EQ(a.requests().size(), b.requests().size());
    for (std::size_t i = 0; i < a.requests().size(); ++i) {
        const RequestRecord& x = a.requests()[i];
        const RequestRecord& y = b.requests()[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.arrival, y.arrival);          // exact, not approximate
        EXPECT_EQ(x.prompt_tokens, y.prompt_tokens);
        EXPECT_EQ(x.output_tokens, y.output_tokens);
        EXPECT_EQ(x.ttft, y.ttft);
        EXPECT_EQ(x.tpot, y.tpot);
        EXPECT_EQ(x.completion, y.completion);
        EXPECT_EQ(x.wait, y.wait);
        EXPECT_EQ(x.preemptions, y.preemptions);
    }
    ASSERT_EQ(a_log.steps.size(), b_log.steps.size());
    for (int e = 0; e < engines; ++e) {
        SCOPED_TRACE(e);
        const auto xs = a_log.of(e);
        const auto ys = b_log.of(e);
        ASSERT_EQ(xs.size(), ys.size());
        for (std::size_t i = 0; i < xs.size(); ++i) {
            EXPECT_EQ(xs[i].start, ys[i].start);
            EXPECT_EQ(xs[i].end, ys[i].end);
            EXPECT_EQ(xs[i].batched_tokens, ys[i].batched_tokens);
            EXPECT_EQ(xs[i].num_seqs, ys[i].num_seqs);
        }
    }
    // The serialized run report is the external contract: identical bytes.
    obs::ReportJson ra("equivalence");
    ra.add_run("run", a);
    obs::ReportJson rb("equivalence");
    rb.add_run("run", b);
    std::ostringstream sa, sb;
    ra.write(sa);
    rb.write(sb);
    EXPECT_EQ(sa.str(), sb.str());
}

TEST(SimEquivalence, SingleEngineMatchesLockstepBitForBit)
{
    const auto workload = mixed_workload(60);
    StepLog cluster_log, lockstep_log;
    Router cluster_router(build_replicas(1, 4, cluster_log));
    const Metrics via_cluster = cluster_router.run_workload(workload);

    Router lockstep_router(build_replicas(1, 4, lockstep_log));
    const Metrics via_lockstep = lockstep_replay(lockstep_router, workload);

    expect_identical(via_cluster, cluster_log, via_lockstep, lockstep_log,
                     1);
    EXPECT_EQ(cluster_router.migration_count(), 0);
}

TEST(SimEquivalence, EightReplicaDpMatchesLockstepBitForBit)
{
    const auto workload = mixed_workload(120);
    StepLog cluster_log, lockstep_log;
    Router cluster_router(build_replicas(8, 1, cluster_log),
                          RoutingPolicy::kLeastTokens);
    const Metrics via_cluster = cluster_router.run_workload(workload);

    Router lockstep_router(build_replicas(8, 1, lockstep_log),
                           RoutingPolicy::kLeastTokens);
    const Metrics via_lockstep = lockstep_replay(lockstep_router, workload);

    expect_identical(via_cluster, cluster_log, via_lockstep, lockstep_log,
                     8);
}

TEST(SimEquivalence, RoundRobinDpMatchesLockstepBitForBit)
{
    // Round-robin routing is sensitive to submission *order* alone, so it
    // doubles as a check that cluster arrival events keep posting order.
    const auto workload = mixed_workload(80);
    StepLog cluster_log, lockstep_log;
    Router cluster_router(build_replicas(4, 2, cluster_log),
                          RoutingPolicy::kRoundRobin);
    const Metrics via_cluster = cluster_router.run_workload(workload);

    Router lockstep_router(build_replicas(4, 2, lockstep_log),
                           RoutingPolicy::kRoundRobin);
    const Metrics via_lockstep = lockstep_replay(lockstep_router, workload);

    expect_identical(via_cluster, cluster_log, via_lockstep, lockstep_log,
                     4);
}

TEST(SimEquivalence, MigrationOffByDefaultEvenWhenImbalanced)
{
    // A pathological workload (everything lands on one replica's watch)
    // must still replay identically when migration is not requested.
    std::vector<RequestSpec> reqs;
    for (int i = 0; i < 30; ++i)
        reqs.push_back({0.001 * i, 4096, 64});
    StepLog cluster_log, lockstep_log;
    Router cluster_router(build_replicas(2, 4, cluster_log));
    const Metrics via_cluster = cluster_router.run_workload(reqs);
    EXPECT_EQ(cluster_router.migration_count(), 0);

    Router lockstep_router(build_replicas(2, 4, lockstep_log));
    const Metrics via_lockstep = lockstep_replay(lockstep_router, reqs);
    expect_identical(via_cluster, cluster_log, via_lockstep, lockstep_log,
                     2);
}

} // namespace
} // namespace shiftpar::engine
