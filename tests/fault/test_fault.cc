/** @file Tests for fault injection and failure recovery on the cluster core. */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/test_helpers.h"
#include "engine/router.h"
#include "fault/fault_schedule.h"
#include "obs/trace.h"

namespace shiftpar::fault {
namespace {

using shiftpar::testing::make_engine;
using shiftpar::testing::replay;
using shiftpar::testing::tiny_model;

// ---------------------------------------------------------------- parsing

TEST(FaultSpec, EmptySpecIsEmptySchedule)
{
    EXPECT_TRUE(parse_fault_spec("").empty());
}

TEST(FaultSpec, ParsesFailWithRecovery)
{
    const auto s = parse_fault_spec("fail:engine=1,at=10,recover=25");
    ASSERT_EQ(s.events.size(), 1u);
    EXPECT_EQ(s.events[0].kind, FaultKind::kFail);
    EXPECT_EQ(s.events[0].engine, 1);
    EXPECT_DOUBLE_EQ(s.events[0].at, 10.0);
    EXPECT_DOUBLE_EQ(s.events[0].recover_at, 25.0);
}

TEST(FaultSpec, PermanentFailNeverRecovers)
{
    const auto s = parse_fault_spec("fail:engine=3,at=10");
    ASSERT_EQ(s.events.size(), 1u);
    EXPECT_EQ(s.events[0].engine, 3);
    EXPECT_TRUE(std::isinf(s.events[0].recover_at));
}

TEST(FaultSpec, ParsesStraggleClause)
{
    const auto s =
        parse_fault_spec("straggle:engine=0,at=5,until=15,slow=2.5");
    ASSERT_EQ(s.events.size(), 1u);
    EXPECT_EQ(s.events[0].kind, FaultKind::kStraggle);
    EXPECT_EQ(s.events[0].engine, 0);
    EXPECT_DOUBLE_EQ(s.events[0].at, 5.0);
    EXPECT_DOUBLE_EQ(s.events[0].factor, 2.5);
    EXPECT_DOUBLE_EQ(s.events[0].recover_at, 15.0);
}

TEST(FaultSpec, ParsesMtbfClause)
{
    const auto s = parse_fault_spec("mtbf:mean=60,mttr=5,duration=300,seed=9");
    ASSERT_EQ(s.mtbf.size(), 1u);
    EXPECT_DOUBLE_EQ(s.mtbf[0].mean, 60.0);
    EXPECT_DOUBLE_EQ(s.mtbf[0].mttr, 5.0);
    EXPECT_DOUBLE_EQ(s.mtbf[0].duration, 300.0);
    EXPECT_EQ(s.mtbf[0].seed, 9u);
}

TEST(FaultSpec, ParsesDrainClause)
{
    const auto s = parse_fault_spec("drain:engine=1,at=10,resume=30");
    ASSERT_EQ(s.events.size(), 1u);
    EXPECT_EQ(s.events[0].kind, FaultKind::kDrain);
    EXPECT_EQ(s.events[0].engine, 1);
    EXPECT_DOUBLE_EQ(s.events[0].at, 10.0);
    EXPECT_DOUBLE_EQ(s.events[0].recover_at, 30.0);

    // Without resume= the drain is permanent.
    const auto p = parse_fault_spec("drain:engine=0,at=5");
    ASSERT_EQ(p.events.size(), 1u);
    EXPECT_TRUE(std::isinf(p.events[0].recover_at));
}

TEST(FaultSpec, BlankClausesAreTolerated)
{
    // Trailing/doubled separators and whitespace-only clauses are
    // skipped, not errors — specs built by string concatenation stay
    // valid.
    const auto s = parse_fault_spec(
        ";fail:engine=0,at=1;;straggle:engine=1,at=2,until=3,slow=2; ;");
    ASSERT_EQ(s.events.size(), 2u);
    EXPECT_EQ(s.events[0].kind, FaultKind::kFail);
    EXPECT_EQ(s.events[1].kind, FaultKind::kStraggle);
}

TEST(FaultSpecDeath, ErrorsNameTheClauseByIndexAndText)
{
    // Blank clauses still count toward the position, so the error in
    // "a;;b" points at clause 3 — the label a user can find in a long
    // spec — and quotes the offending text verbatim.
    EXPECT_DEATH(parse_fault_spec("fail:engine=0,at=1;;flood:at=2"),
                 "clause 3 \\('flood:at=2'\\)");
    EXPECT_DEATH(parse_fault_spec("fail:engine=0,at=1;fail:at=9"),
                 "clause 2 \\('fail:at=9'\\)");
}

TEST(FaultSpecDeath, DrainErrorsAreFatal)
{
    EXPECT_DEATH(parse_fault_spec("drain:at=5"), "needs key 'engine'");
    EXPECT_DEATH(parse_fault_spec("drain:engine=0,at=10,resume=10"),
                 "resume= must be after at=");
}

TEST(FaultSpecDeath, MalformedSpecsNameTheOffendingToken)
{
    EXPECT_DEATH(parse_fault_spec("flood:at=1"), "unknown clause kind");
    EXPECT_DEATH(parse_fault_spec("fail:at=5"), "needs key 'engine'");
    EXPECT_DEATH(parse_fault_spec("fail:engine=0,rank=1,at=5"),
                 "unknown key 'rank'");
    EXPECT_DEATH(parse_fault_spec("degrade:at=5,until=20,factor=4"),
                 "unknown clause kind 'degrade'");
    EXPECT_DEATH(parse_fault_spec("fail:engine=0,at=5,at=6"),
                 "duplicate key 'at'");
    EXPECT_DEATH(parse_fault_spec("fail:engine=0,at=5,color=red"),
                 "unknown key 'color'");
    EXPECT_DEATH(parse_fault_spec("fail:engine=0,at=abc"),
                 "expects a number");
    EXPECT_DEATH(parse_fault_spec("fail:engine=0,at=10,recover=5"),
                 "recover= must be after at=");
    EXPECT_DEATH(parse_fault_spec("straggle:engine=0,at=5,until=15,slow=1"),
                 "factor must be > 1");
    EXPECT_DEATH(parse_fault_spec("mtbf:mean=0,mttr=5,duration=10"),
                 "positive mean");
}

TEST(FaultSpecDeath, OutOfIntRangeIndicesAreFatal)
{
    // Each value is range-checked before it is converted to int.
    EXPECT_DEATH(parse_fault_spec("fail:engine=1e20,at=1"),
                 "expects a non-negative integer");
    EXPECT_DEATH(parse_fault_spec("fail:engine=nan,at=1"),
                 "expects a non-negative integer");
    EXPECT_DEATH(parse_fault_spec("fail:engine=inf,at=1"),
                 "expects a non-negative integer");
}

// ----------------------------------------------------------- materialize

TEST(FaultScheduleDeath, OutOfRangeAddressesAreFatal)
{
    EXPECT_DEATH(parse_fault_spec("fail:engine=2,at=1").materialize(2),
                 "engine 2 is outside the deployment");
    // A programmatic event is checked too: a negative engine would
    // otherwise index before the first replica.
    FaultSchedule s;
    FaultEvent ev;
    ev.engine = -1;
    ev.at = 1.0;
    s.events.push_back(ev);
    EXPECT_DEATH(s.materialize(2), "engine -1 is outside the deployment");
}

TEST(FaultSchedule, MtbfExpansionIsSeedDeterministic)
{
    const auto spec = "mtbf:mean=20,mttr=3,duration=200,seed=11";
    const auto a = parse_fault_spec(spec).materialize(3);
    const auto b = parse_fault_spec(spec).materialize(3);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].engine, b[i].engine);
        EXPECT_DOUBLE_EQ(a[i].at, b[i].at);
        EXPECT_DOUBLE_EQ(a[i].recover_at, b[i].recover_at);
    }
    for (std::size_t i = 0; i + 1 < a.size(); ++i)
        EXPECT_LE(a[i].at, a[i + 1].at);  // sorted by time
    for (const auto& ev : a) {
        EXPECT_GE(ev.at, 0.0);
        EXPECT_LT(ev.at, 200.0);
        EXPECT_DOUBLE_EQ(ev.recover_at, ev.at + 3.0);
    }
    // A different seed replays different times (engine streams decorrelate).
    const auto c = parse_fault_spec("mtbf:mean=20,mttr=3,duration=200,seed=12")
                       .materialize(3);
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].at != c[i].at || a[i].engine != c[i].engine;
    EXPECT_TRUE(differs);
}

// ------------------------------------------------------ engine lifecycle

TEST(EngineFault, FailDropsInFlightWorkAndStopsTheClock)
{
    engine::EngineConfig cfg;
    cfg.base = {1, 4};
    auto e = make_engine(tiny_model(), cfg);
    e->submit({0.0, 512, 16}, 0);
    e->submit({0.0, 256, 8}, 1);
    e->advance_to(e->next_event_time());  // make some progress

    const auto dropped = e->fail(0.5);
    ASSERT_EQ(dropped.size(), 2u);
    EXPECT_TRUE(e->failed());
    EXPECT_FALSE(e->has_work());
    EXPECT_TRUE(std::isinf(e->next_event_time()));

    e->recover(1.5);
    EXPECT_FALSE(e->failed());
    e->submit({1.5, 512, 16}, 2);  // a recovered engine accepts work again
    replay({e.get()});
    EXPECT_EQ(e->metrics().requests().size(), 1u);
}

TEST(EngineFault, FailDropsAPrefixEntryThatNeverGotBlocks)
{
    // Request 0's prompt fills every block but one token's worth, so
    // request 1 attaches to its prefix at the admission gate and then
    // finds the pool full: the entry exists, pinned, with no blocks. The
    // fail unpins it and must still leave the engine holding nothing.
    engine::EngineConfig cfg;
    cfg.base = {1, 8};
    cfg.sched.enable_prefix_caching = true;
    cfg.mem.hbm_utilization = 0.03;
    auto e = make_engine(tiny_model(), cfg);
    const std::int64_t blocks = e->cache().token_capacity() / 16;
    ASSERT_GT(blocks, 100);
    e->submit({0.0, blocks * 16 - 1, 2}, 0);
    engine::RequestSpec shared{0.0, 2000, 10};
    shared.prefix_id = 3;
    shared.prefix_tokens = 1000;
    e->submit(shared, 1);
    for (int i = 0; i < 100 && e->cache().prefix_entry_count() == 0; ++i)
        e->advance_to(e->next_event_time());
    ASSERT_EQ(e->cache().prefix_entry_count(), 1u);
    ASSERT_EQ(e->cache().prefix_cached_tokens(3), 0);

    EXPECT_EQ(e->fail(e->now()).size(), 2u);
    EXPECT_EQ(e->cache().prefix_entry_count(), 0u);
    EXPECT_EQ(e->cache().used_blocks(), 0);
}

// --------------------------------------------------------- cluster replay

std::vector<std::unique_ptr<engine::Engine>>
replicas(int n, obs::TraceSink* sink = nullptr)
{
    std::vector<std::unique_ptr<engine::Engine>> engines;
    for (int i = 0; i < n; ++i) {
        engine::EngineConfig cfg;
        cfg.base = {1, 4};
        if (sink) {
            obs::EngineMeta meta;
            meta.label = "replica " + std::to_string(i);
            meta.base = cfg.base;
            cfg.trace = sink;
            cfg.trace_id = sink->register_engine(meta);
        }
        engines.push_back(make_engine(tiny_model(), cfg));
    }
    return engines;
}

std::vector<engine::RequestSpec>
steady_arrivals(int n, double spacing = 0.01)
{
    std::vector<engine::RequestSpec> reqs;
    for (int i = 0; i < n; ++i)
        reqs.push_back({spacing * i, 512, 32});
    return reqs;
}

/** Counts fault/lifecycle events published to the bus. */
class FaultSink : public obs::TraceSink
{
  public:
    void on_fault(const obs::FaultEvent& ev) override
    {
        if (ev.kind == obs::FaultKind::kFail)
            ++fails_;
        if (ev.kind == obs::FaultKind::kRecover)
            ++recovers_;
    }
    void on_request(const obs::RequestEvent& ev) override
    {
        if (ev.phase == obs::RequestPhase::kRetried)
            ++retried_;
        if (ev.phase == obs::RequestPhase::kLost)
            ++lost_;
        if (ev.phase == obs::RequestPhase::kShed)
            ++shed_;
    }
    int fails_ = 0, recovers_ = 0, retried_ = 0, lost_ = 0, shed_ = 0;
};

TEST(FaultReplay, FailedReplicaRequestsRerouteAndAllComplete)
{
    FaultSink sink;
    // Engine-level transitions (kFail/kRecover) publish through each
    // engine's own trace attachment; router-level lifecycle (kRetried,
    // kLost, kShed) through the router's.
    engine::Router router(replicas(2, &sink));
    router.set_trace(&sink);
    router.set_faults(parse_fault_spec("fail:engine=0,at=0.2,recover=2.0"));

    const auto reqs = steady_arrivals(40);
    const auto met = router.run_workload(reqs);
    const FaultStats& fs = router.fault_stats();

    EXPECT_EQ(fs.failures, 1);
    EXPECT_EQ(fs.recoveries, 1);
    EXPECT_GT(fs.dropped, 0);
    EXPECT_GE(fs.retries, fs.dropped);
    EXPECT_EQ(fs.lost, 0);
    EXPECT_EQ(fs.shed, 0);
    // Accounting invariant: every submitted request completed exactly once.
    ASSERT_EQ(met.requests().size(), reqs.size());
    std::set<engine::RequestId> ids;
    for (const auto& rec : met.requests())
        ids.insert(rec.id);
    EXPECT_EQ(ids.size(), reqs.size());
    // Everything is on the bus: transitions and per-request retries.
    EXPECT_EQ(sink.fails_, 1);
    EXPECT_EQ(sink.recovers_, 1);
    EXPECT_EQ(sink.retried_, fs.retries);
}

TEST(FaultReplay, PermanentFailureOfTheOnlyReplicaLosesRequests)
{
    engine::Router router(replicas(1));
    FaultSink sink;
    router.set_trace(&sink);
    router.set_faults(parse_fault_spec("fail:engine=0,at=0.05"));

    const auto reqs = steady_arrivals(20);
    const auto met = router.run_workload(reqs);
    const FaultStats& fs = router.fault_stats();

    EXPECT_EQ(fs.failures, 1);
    EXPECT_EQ(fs.recoveries, 0);
    EXPECT_GT(fs.lost, 0);
    EXPECT_GT(fs.retries, 0);  // the backoff ladder ran before giving up
    const auto completed = static_cast<std::int64_t>(met.requests().size());
    EXPECT_EQ(completed + fs.lost + fs.shed,
              static_cast<std::int64_t>(reqs.size()));
    EXPECT_EQ(sink.lost_, fs.lost);
}

TEST(FaultReplay, WatermarkShedsEveryArrivalWhileDegraded)
{
    engine::Router router(replicas(2));
    engine::ResilienceOptions res;
    res.shed_watermark = 0.99;  // any lost GPU puts the router in shed mode
    res.shed_ttft_slo = 0.0;    // and 0 sheds unconditionally while there
    router.set_faults(parse_fault_spec("fail:engine=0,at=0.001"), res);

    const auto reqs = steady_arrivals(20, /*spacing=*/0.01);
    const auto met = router.run_workload(reqs);
    const FaultStats& fs = router.fault_stats();

    EXPECT_GT(fs.shed, 0);
    const auto completed = static_cast<std::int64_t>(met.requests().size());
    EXPECT_EQ(completed + fs.lost + fs.shed,
              static_cast<std::int64_t>(reqs.size()));
}

TEST(FaultReplay, SloAwareSheddingAdmitsWithinTheBound)
{
    engine::Router router(replicas(2));
    engine::ResilienceOptions res;
    res.shed_watermark = 0.99;
    res.shed_ttft_slo = 1e9;  // any backlog clears in time: admit everything
    res.replica_tokens_per_s = 1000.0;
    router.set_faults(parse_fault_spec("fail:engine=0,at=0.2,recover=1.0"),
                      res);

    const auto reqs = steady_arrivals(30);
    const auto met = router.run_workload(reqs);
    EXPECT_EQ(router.fault_stats().shed, 0);
    EXPECT_EQ(met.requests().size(), reqs.size());
}

TEST(FaultReplay, StraggleWindowSlowsCompletion)
{
    const auto reqs = steady_arrivals(10);
    engine::Router healthy(replicas(1));
    const double baseline = healthy.run_workload(reqs).end_time();

    engine::Router straggling(replicas(1));
    straggling.set_faults(
        parse_fault_spec("straggle:engine=0,at=0,until=1000,slow=3"));
    const auto met = straggling.run_workload(reqs);

    EXPECT_EQ(straggling.fault_stats().straggles, 1);
    EXPECT_GT(met.end_time(), baseline * 1.5);
    EXPECT_EQ(met.requests().size(), reqs.size());  // slow, but no losses
}

TEST(FaultReplay, SameSpecAndSeedReplaysByteIdentical)
{
    const auto reqs = steady_arrivals(60);
    const auto run = [&] {
        engine::Router router(replicas(3));
        router.set_faults(
            parse_fault_spec("mtbf:mean=1.0,mttr=0.3,duration=5,seed=4"));
        return router.run_workload(reqs);
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.requests().size(), b.requests().size());
    for (std::size_t i = 0; i < a.requests().size(); ++i) {
        EXPECT_EQ(a.requests()[i].id, b.requests()[i].id);
        EXPECT_DOUBLE_EQ(a.requests()[i].ttft, b.requests()[i].ttft);
        EXPECT_DOUBLE_EQ(a.requests()[i].completion,
                         b.requests()[i].completion);
    }
    EXPECT_DOUBLE_EQ(a.end_time(), b.end_time());
    EXPECT_EQ(a.total_tokens(), b.total_tokens());
}

TEST(FaultReplay, EmptyScheduleIsBitIdenticalToNoFaultMachinery)
{
    const auto reqs = steady_arrivals(40);
    engine::Router plain(replicas(2));
    const auto a = plain.run_workload(reqs);

    engine::Router armed(replicas(2));
    engine::ResilienceOptions res;
    res.shed_watermark = 0.99;  // knobs set, but nothing ever degrades
    armed.set_faults(FaultSchedule{}, res);
    const auto b = armed.run_workload(reqs);

    const FaultStats& fs = armed.fault_stats();
    EXPECT_EQ(fs.failures, 0);
    EXPECT_EQ(fs.recoveries, 0);
    EXPECT_EQ(fs.straggles, 0);
    EXPECT_EQ(fs.dropped, 0);
    EXPECT_EQ(fs.retries, 0);
    EXPECT_EQ(fs.lost, 0);
    EXPECT_EQ(fs.shed, 0);
    ASSERT_EQ(a.requests().size(), b.requests().size());
    for (std::size_t i = 0; i < a.requests().size(); ++i) {
        EXPECT_EQ(a.requests()[i].id, b.requests()[i].id);
        EXPECT_EQ(a.requests()[i].ttft, b.requests()[i].ttft);
        EXPECT_EQ(a.requests()[i].tpot, b.requests()[i].tpot);
        EXPECT_EQ(a.requests()[i].completion, b.requests()[i].completion);
    }
    EXPECT_EQ(a.end_time(), b.end_time());
}

TEST(FaultReplay, MigratedRequestSurvivesItsTargetFailing)
{
    // Migration steals queued work onto the idler replica; if that replica
    // then fails, the stolen requests must come back through the retry
    // path and complete exactly once — never double-counted between the
    // donor's record and the target's.
    engine::MigrationOptions mig;
    mig.enabled = true;
    mig.min_token_imbalance = 1024;
    engine::Router router(replicas(2), engine::RoutingPolicy::kRoundRobin,
                          mig);
    // Fail mid-burst, while the stolen requests are still in flight.
    router.set_faults(parse_fault_spec("fail:engine=1,at=0.02,recover=0.5"));

    std::vector<engine::RequestSpec> reqs;
    for (int i = 0; i < 40; ++i) {
        const bool big = i % 2 == 0;
        reqs.push_back({0.001 * i, big ? 4096 : 128, big ? 128 : 8});
    }
    const auto met = router.run_workload(reqs);
    const FaultStats& fs = router.fault_stats();

    EXPECT_GT(router.migration_count(), 0);
    EXPECT_EQ(fs.failures, 1);
    EXPECT_GT(fs.dropped, 0);
    const auto completed = static_cast<std::int64_t>(met.requests().size());
    EXPECT_EQ(completed + fs.lost + fs.shed,
              static_cast<std::int64_t>(reqs.size()));
    std::set<engine::RequestId> ids;
    for (const auto& rec : met.requests())
        ids.insert(rec.id);
    EXPECT_EQ(ids.size(), met.requests().size());  // no double completion
}

// ------------------------------------------------- retry-backoff boundaries

/**
 * One mid-sized request on one replica, plus the plain makespan so the
 * fail can be planted mid-flight. The backoff starts at 0.25 s, doubles
 * and is capped at 4 s, so a request dropped at F re-attempts at F+0.25,
 * F+0.75, F+1.75, F+3.75, F+7.75, F+11.75, ... — the cap holds the gap
 * at 4 s from attempt 5 on.
 */
struct RetryFixture
{
    std::vector<engine::RequestSpec> reqs{{0.0, 2048, 128}};
    double makespan;

    RetryFixture()
    {
        engine::Router probe(replicas(1));
        makespan = probe.run_workload(reqs).end_time();
    }

    engine::ResilienceOptions
    res(int max_retries) const
    {
        engine::ResilienceOptions r;
        r.max_retries = max_retries;
        return r;
    }

    std::string
    fail_spec(double recover_after) const
    {
        return "fail:engine=0,at=" + std::to_string(makespan / 2) +
               ",recover=" + std::to_string(makespan / 2 + recover_after);
    }
};

TEST(FaultRetryBoundary, SucceedsOnTheLastPermittedAttempt)
{
    // Recovery at F+9.0 sits between attempt 5 (F+7.75) and attempt 6
    // (F+11.75): the request must come back on attempt 6 — exactly
    // max_retries — after the backoff has reached its 4 s cap.
    const RetryFixture fx;
    engine::Router router(replicas(1));
    router.set_faults(parse_fault_spec(fx.fail_spec(9.0)), fx.res(6));
    const auto met = router.run_workload(fx.reqs);
    const FaultStats& fs = router.fault_stats();
    EXPECT_EQ(fs.failures, 1);
    EXPECT_EQ(fs.dropped, 1);
    EXPECT_EQ(fs.retries, 6);
    EXPECT_EQ(fs.lost, 0);
    ASSERT_EQ(met.requests().size(), 1u);
    // TTFT includes the outage the request sat through.
    EXPECT_GT(met.requests()[0].completion, fx.makespan / 2 + 9.0);
}

TEST(FaultRetryBoundary, ExhaustedAttemptsAreLostBeforeRecovery)
{
    // Identical outage, one fewer permitted attempt: attempt 6 would
    // have succeeded, so with max_retries=5 the request is declared
    // lost at F+7.75 — strictly before the engine comes back.
    const RetryFixture fx;
    engine::Router router(replicas(1));
    router.set_faults(parse_fault_spec(fx.fail_spec(9.0)), fx.res(5));
    const auto met = router.run_workload(fx.reqs);
    const FaultStats& fs = router.fault_stats();
    EXPECT_EQ(fs.retries, 5);
    EXPECT_EQ(fs.lost, 1);
    EXPECT_EQ(fs.recoveries, 1);
    EXPECT_EQ(met.requests().size(), 0u);
}

TEST(FaultRetryBoundary, RetryRacingRecoveryCompletesOnce)
{
    // Recovery and the first retry land on the same instant (F+0.25).
    // Equal-time events run in posting order: the fail handler posts the
    // dropped request's retry before it posts its own recovery, so the
    // retry fires first, finds the engine still down, and backs off once
    // more — attempt 2 then lands on the recovered engine. The request
    // completes exactly once either way; only the attempt count tells
    // the two orderings apart, and it must do so deterministically.
    const RetryFixture fx;
    engine::Router router(replicas(1));
    router.set_faults(parse_fault_spec(fx.fail_spec(0.25)), fx.res(3));
    const auto met = router.run_workload(fx.reqs);
    const FaultStats& fs = router.fault_stats();
    EXPECT_EQ(fs.failures, 1);
    EXPECT_EQ(fs.recoveries, 1);
    EXPECT_EQ(fs.retries, 2);
    EXPECT_EQ(fs.lost, 0);
    ASSERT_EQ(met.requests().size(), 1u);
    EXPECT_EQ(met.requests()[0].id, 0);
}

} // namespace
} // namespace shiftpar::fault
