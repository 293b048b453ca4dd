/**
 * @file
 * Randomized chaos soak over the full request lifecycle: every robustness
 * feature at once — MTBF fail/recover faults, a graceful drain, client
 * cancellations, per-request deadlines, hedged retries, and circuit
 * breakers — under seeded random workloads and knob settings. Half the
 * rounds also share prompt prefixes over a small KV pool, so faults meet
 * prefix entries, evictions and preemptions.
 *
 * Two properties must survive arbitrary compositions:
 *
 *  1. conservation: submitted = completed + lost + shed + expired +
 *     cancelled, with every completed request reported exactly once;
 *  2. determinism: replaying the identical seed reproduces identical
 *     per-request metrics and identical lifecycle counters.
 *
 * The round count is scaled by SHIFTPAR_CHAOS_ROUNDS (CI's sanitizer job
 * raises it so ASan/UBSan sweep more of the configuration space).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/test_helpers.h"
#include "engine/router.h"
#include "fault/fault_schedule.h"
#include "util/rng.h"
#include "workload/lifecycle.h"

namespace shiftpar {
namespace {

using engine::Engine;
using engine::EngineConfig;
using engine::OverloadOptions;
using engine::OverloadStats;
using engine::RequestSpec;
using engine::Router;
using shiftpar::testing::make_engine;
using shiftpar::testing::tiny_model;

int
chaos_rounds()
{
    // shiftlint-allow(nondet-source): CI knob scales soak depth, not results
    if (const char* env = std::getenv("SHIFTPAR_CHAOS_ROUNDS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    return 3;  // fast default for local ctest runs
}

/** Everything one chaos replay produces, for the determinism re-check. */
struct ChaosOutcome
{
    OverloadStats overload;
    fault::FaultStats faults;
    std::vector<engine::RequestId> ids;
    std::vector<double> completions;
    double end_time = 0.0;
};

ChaosOutcome
run_chaos(std::uint64_t seed)
{
    Rng rng(seed);
    // Shared prefixes and the small pool draw from their own stream, so
    // every other draw of a round is the one it was without them.
    Rng prefix_rng(seed * 7 + 3);
    const bool shared_prefixes = prefix_rng.bernoulli(0.5);
    // About 1.9k-3.2k KV tokens per tiny TP2 replica: a few requests.
    const double hbm_utilization = prefix_rng.uniform(0.0293, 0.02945);

    // Random cluster: 2-4 serial-ish replicas so queues actually form.
    const int n_replicas = static_cast<int>(rng.uniform_int(2, 4));
    const std::int64_t max_running = rng.uniform_int(1, 3);
    std::vector<std::unique_ptr<Engine>> engines;
    for (int i = 0; i < n_replicas; ++i) {
        EngineConfig cfg;
        cfg.base = {1, 2};
        cfg.sched.max_running_seqs = max_running;
        if (shared_prefixes) {
            cfg.sched.enable_prefix_caching = true;
            cfg.mem.hbm_utilization = hbm_utilization;
        }
        engines.push_back(make_engine(tiny_model(), cfg));
    }
    const auto policy = rng.bernoulli(0.5)
                            ? engine::RoutingPolicy::kRoundRobin
                            : engine::RoutingPolicy::kLeastTokens;
    Router router(std::move(engines), policy);

    // Random workload: bursty-ish arrivals, mixed sizes.
    const int n_reqs = static_cast<int>(rng.uniform_int(40, 90));
    std::vector<RequestSpec> reqs;
    double t = 0.0;
    for (int i = 0; i < n_reqs; ++i) {
        t += rng.exponential(rng.bernoulli(0.3) ? 400.0 : 60.0);
        reqs.push_back({t, rng.uniform_int(64, 1024),
                        rng.uniform_int(8, 64)});
    }
    if (shared_prefixes) {
        for (RequestSpec& r : reqs) {
            if (!prefix_rng.bernoulli(0.7))
                continue;
            r.prefix_id = prefix_rng.uniform_int(0, 3);
            r.prefix_tokens =
                std::min(r.prompt_tokens, prefix_rng.uniform_int(32, 512));
        }
    }

    // Random lifecycle knobs: deadlines + cancels always on (they drive
    // the conservation bookkeeping), hedging and breakers by coin flip.
    workload::LifecycleOptions lc;
    lc.cancel_rate = rng.uniform(0.05, 0.25);
    lc.cancel_delay_mean = rng.uniform(0.2, 2.0);
    lc.seed = seed * 31 + 7;
    lc.deadline = rng.uniform(0.5, 4.0);
    lc.deadline_per_token = 0.01;
    workload::apply_deadlines(&reqs, lc);
    router.set_cancellations(workload::cancel_stream(reqs, lc));

    OverloadOptions opts;
    if (rng.bernoulli(0.6))
        opts.hedge_delay = rng.uniform(0.05, 0.5);
    if (rng.bernoulli(0.6)) {
        opts.breaker.enabled = true;
        opts.breaker.min_samples = static_cast<int>(rng.uniform_int(2, 6));
        opts.breaker.trip_ratio = rng.uniform(1.5, 3.0);
        opts.breaker.open_duration = rng.uniform(0.2, 2.0);
    }
    router.set_overload(opts);

    // Random infrastructure chaos: MTBF churn plus one graceful drain.
    const double horizon = t + 1.0;
    std::string spec = "mtbf:mean=" + std::to_string(horizon / 2) +
                       ",mttr=" + std::to_string(rng.uniform(0.05, 0.3)) +
                       ",duration=" + std::to_string(horizon) +
                       ",seed=" + std::to_string(seed);
    const int drain_target =
        static_cast<int>(rng.uniform_int(0, n_replicas - 1));
    spec += ";drain:engine=" + std::to_string(drain_target) +
            ",at=" + std::to_string(rng.uniform(0.1, horizon / 2));
    if (rng.bernoulli(0.7))
        spec += ",resume=" + std::to_string(horizon);
    engine::ResilienceOptions res;
    res.max_retries = static_cast<int>(rng.uniform_int(2, 6));
    router.set_faults(fault::parse_fault_spec(spec), res);

    const auto met = router.run_workload(reqs);

    // Conservation: every submitted request lands in exactly one
    // terminal bucket, and the metrics report exactly the completions.
    const OverloadStats& os = router.overload_stats();
    const fault::FaultStats& fs = router.fault_stats();
    EXPECT_EQ(os.completed + os.expired + os.cancelled + fs.lost + fs.shed,
              n_reqs)
        << "conservation leak at seed " << seed << " (spec: " << spec
        << (shared_prefixes ? ", shared prefixes" : "") << ")";
    EXPECT_EQ(met.requests().size(),
              static_cast<std::size_t>(os.completed));
    // A winning hedge clone reports under its offset id; mapped back to
    // logical ids, completions must be unique — no request twice.
    std::set<engine::RequestId> unique;
    ChaosOutcome out;
    out.overload = os;
    out.faults = fs;
    for (const auto& rec : met.requests()) {
        const engine::RequestId logical = engine::logical_request_id(rec.id);
        EXPECT_LT(logical, n_reqs);
        unique.insert(logical);
        out.ids.push_back(rec.id);
        out.completions.push_back(rec.completion);
    }
    EXPECT_EQ(unique.size(), met.requests().size())
        << "request completed twice at seed " << seed;
    out.end_time = met.end_time();
    return out;
}

TEST(ChaosSoak, ConservationAndDeterminismHoldUnderRandomChaos)
{
    const int rounds = chaos_rounds();
    for (int round = 0; round < rounds; ++round) {
        const std::uint64_t seed = 1000 + 17 * static_cast<std::uint64_t>(
                                              round);
        SCOPED_TRACE("chaos seed " + std::to_string(seed));
        const ChaosOutcome a = run_chaos(seed);
        const ChaosOutcome b = run_chaos(seed);

        EXPECT_EQ(a.overload.completed, b.overload.completed);
        EXPECT_EQ(a.overload.expired, b.overload.expired);
        EXPECT_EQ(a.overload.cancelled, b.overload.cancelled);
        EXPECT_EQ(a.overload.hedges, b.overload.hedges);
        EXPECT_EQ(a.overload.hedge_wins, b.overload.hedge_wins);
        EXPECT_EQ(a.overload.hedge_losses, b.overload.hedge_losses);
        EXPECT_EQ(a.overload.breaker_opens, b.overload.breaker_opens);
        EXPECT_EQ(a.overload.breaker_probes, b.overload.breaker_probes);
        EXPECT_EQ(a.overload.breaker_closes, b.overload.breaker_closes);
        EXPECT_EQ(a.overload.drains, b.overload.drains);
        EXPECT_EQ(a.overload.drained, b.overload.drained);
        EXPECT_EQ(a.faults.failures, b.faults.failures);
        EXPECT_EQ(a.faults.retries, b.faults.retries);
        EXPECT_EQ(a.faults.lost, b.faults.lost);
        EXPECT_EQ(a.faults.shed, b.faults.shed);
        ASSERT_EQ(a.ids.size(), b.ids.size());
        for (std::size_t i = 0; i < a.ids.size(); ++i) {
            EXPECT_EQ(a.ids[i], b.ids[i]);
            EXPECT_DOUBLE_EQ(a.completions[i], b.completions[i]);
        }
        EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
    }
}

} // namespace
} // namespace shiftpar
