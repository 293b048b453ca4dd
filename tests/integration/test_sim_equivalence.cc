/**
 * @file
 * Pinned reference replays of the discrete-event cluster core.
 *
 * `Router::run_workload` drives every replica as a `sim::Component` on
 * one event queue. For single-engine and pure-DP deployments (no
 * migration) the result is exactly the lockstep replay the simulator
 * used before the cluster core existed: advance every replica to each
 * arrival, submit, drain. Each test replays one workload through the
 * cluster and compares three FNV-1a digests against pinned constants:
 * every request record, every engine's step sequence, and the serialized
 * run report, all bit for bit.
 *
 * The constants were computed from the lockstep loop
 * (`Router::run_until`/`submit`/`drain`) before that loop was deleted,
 * and the cluster replay produced the same digests at that commit. A
 * mismatch therefore means the replay's output moved, not only that two
 * drive loops disagree.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string_view>
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

/** 64-bit FNV-1a; numbers are hashed as their little-endian bytes. */
class Fnv1a
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /** Exact: the bit pattern, not a rounded decimal. */
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    bytes(std::string_view s)
    {
        for (const char c : s)
            byte(static_cast<unsigned char>(c));
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    byte(unsigned char b)
    {
        h_ ^= b;
        h_ *= 1099511628211ULL;
    }

    std::uint64_t h_ = 1469598103934665603ULL;
};

/** Digests of one replay's three observable outputs. */
struct Digests
{
    std::uint64_t records = 0;
    std::uint64_t steps = 0;
    std::uint64_t report = 0;
};

Digests
digest(const Metrics& m, const StepLog& log, int engines)
{
    Digests d;
    Fnv1a records;
    for (const RequestRecord& r : m.requests()) {
        records.i64(r.id);
        records.f64(r.arrival);
        records.i64(r.prompt_tokens);
        records.i64(r.output_tokens);
        records.f64(r.ttft);
        records.f64(r.tpot);
        records.f64(r.completion);
        records.f64(r.wait);
        records.i64(r.preemptions);
    }
    d.records = records.value();

    // Replicas' steps interleave in the shared log, so each engine's
    // sequence is hashed on its own, prefixed by its length.
    Fnv1a steps;
    for (int e = 0; e < engines; ++e) {
        const auto xs = log.of(e);
        steps.u64(xs.size());
        for (const obs::StepEvent& s : xs) {
            steps.f64(s.start);
            steps.f64(s.end);
            steps.i64(s.batched_tokens);
            steps.i64(s.num_seqs);
        }
    }
    d.steps = steps.value();

    // The serialized run report is the external contract.
    obs::ReportJson report("equivalence");
    report.add_run("run", m);
    std::ostringstream os;
    report.write(os);
    Fnv1a bytes;
    bytes.bytes(os.str());
    d.report = bytes.value();
    return d;
}

void
expect_pinned(const Digests& got, const Digests& pinned)
{
    EXPECT_EQ(got.records, pinned.records) << "request records moved";
    EXPECT_EQ(got.steps, pinned.steps) << "engine step sequences moved";
    EXPECT_EQ(got.report, pinned.report) << "serialized report moved";
}

TEST(SimEquivalence, SingleEngineMatchesLockstepBitForBit)
{
    StepLog log;
    Router router(build_replicas(1, 4, log));
    const Metrics met = router.run_workload(mixed_workload(60));
    EXPECT_EQ(router.migration_count(), 0);
    expect_pinned(digest(met, log, 1),
                  {0x69e3e61b58e1f014ULL, 0x04969aa7ec2e6342ULL,
                   0xf14b3a8df0c46005ULL});
}

TEST(SimEquivalence, EightReplicaDpMatchesLockstepBitForBit)
{
    StepLog log;
    Router router(build_replicas(8, 1, log), RoutingPolicy::kLeastTokens);
    const Metrics met = router.run_workload(mixed_workload(120));
    expect_pinned(digest(met, log, 8),
                  {0x424cf031c0f88e10ULL, 0x5a822e23ace88ee0ULL,
                   0x3886e41b2283c2d1ULL});
}

TEST(SimEquivalence, RoundRobinDpMatchesLockstepBitForBit)
{
    // Round-robin routing is sensitive to submission *order* alone, so it
    // doubles as a check that cluster arrival events keep posting order.
    StepLog log;
    Router router(build_replicas(4, 2, log), RoutingPolicy::kRoundRobin);
    const Metrics met = router.run_workload(mixed_workload(80));
    expect_pinned(digest(met, log, 4),
                  {0xf9251b65a5c839bfULL, 0x9acdf6e6b85827d8ULL,
                   0x8598262296b76f2bULL});
}

TEST(SimEquivalence, MigrationOffByDefaultEvenWhenImbalanced)
{
    // A pathological workload (everything lands on one replica's watch)
    // must still replay as the lockstep loop did when migration is not
    // requested.
    std::vector<RequestSpec> reqs;
    for (int i = 0; i < 30; ++i)
        reqs.push_back({0.001 * i, 4096, 64});
    StepLog log;
    Router router(build_replicas(2, 4, log));
    const Metrics met = router.run_workload(reqs);
    EXPECT_EQ(router.migration_count(), 0);
    expect_pinned(digest(met, log, 2),
                  {0xd12f949a8b85ef8dULL, 0x0a8992c4c2ba3074ULL,
                   0xb67763197e722b84ULL});
}

} // namespace
} // namespace shiftpar::engine
