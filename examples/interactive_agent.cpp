/**
 * @file
 * Example: an agentic coding assistant session — the paper's motivating
 * interactive workload (Section 2.1).
 *
 * A coding agent issues a closed loop of requests: it reads the repo
 * (long prompt), proposes an edit (medium output), runs tests, then
 * iterates. Each call's completion time gates the next, so the session's
 * wall-clock is the sum of request completion times — exactly the regime
 * where Shift Parallelism's low TTFT and TPOT compound.
 *
 * The example builds one deployment per strategy, replays the same
 * 12-turn agent session against each, and reports per-turn latency and
 * total session time.
 */

#include <cstdio>
#include <vector>

#include "core/deployment.h"
#include "engine/router.h"
#include "model/presets.h"
#include "util/table.h"
#include "util/units.h"

using namespace shiftpar;

namespace {

/** One agent turn: context grows as the conversation accumulates. */
struct Turn
{
    std::int64_t prompt;
    std::int64_t output;
};

/** A 12-turn agentic session: growing context, alternating edit/test. */
std::vector<Turn>
agent_session()
{
    std::vector<Turn> turns;
    std::int64_t context = 6000;  // initial repo context
    for (int i = 0; i < 12; ++i) {
        const bool edit_turn = i % 2 == 0;
        const std::int64_t output = edit_turn ? 700 : 150;
        turns.push_back({context, output});
        context += output + 900;  // tool results folded into the context
    }
    return turns;
}

/**
 * Replay the session sequentially: each turn is submitted when the
 * previous one completes (closed loop), as a one-request replay.
 */
double
run_session(const core::Deployment& d, const std::vector<Turn>& turns,
            Table* table, const std::string& name)
{
    auto router = core::build(d);
    double t = 0.0;
    for (const auto& turn : turns) {
        const engine::Metrics met =
            router->run_workload({{t, turn.prompt, turn.output}});
        const auto& rec = met.requests().back();
        t = rec.arrival + rec.completion;
    }
    const auto met = router->merged_metrics();
    table->add_row({name, Table::fmt(to_ms(met.ttft().mean())),
                    Table::fmt(to_ms(met.tpot().mean()), 1),
                    Table::fmt(met.completion().mean(), 2),
                    Table::fmt(t, 1)});
    return t;
}

} // namespace

int
main()
{
    const auto turns = agent_session();
    std::printf("Agentic coding session: %zu closed-loop turns on "
                "Llama-70B (8xH200)\n\n",
                turns.size());

    Table table({"Strategy", "mean TTFT (ms)", "mean TPOT (ms)",
                 "mean turn (s)", "session total (s)"});
    double shift_total = 0.0;
    double dp_total = 0.0;
    for (parallel::Strategy s :
         {parallel::Strategy::kDp, parallel::Strategy::kTp,
          parallel::Strategy::kSp, parallel::Strategy::kShift}) {
        core::Deployment d;
        d.model = model::llama_70b();
        d.strategy = s;
        const double total =
            run_session(d, turns, &table, parallel::strategy_name(s));
        if (s == parallel::Strategy::kShift)
            shift_total = total;
        if (s == parallel::Strategy::kDp)
            dp_total = total;
    }
    table.print();
    std::printf(
        "\nThe agent finishes %.1fx faster under Shift than under the\n"
        "throughput-oriented DP deployment, and edges out the TP\n"
        "deployment on latency — while the same node would still absorb\n"
        "batch traffic at near-DP throughput between turns.\n",
        dp_total / shift_total);
    return 0;
}
