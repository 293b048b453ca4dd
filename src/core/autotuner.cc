#include "core/autotuner.h"

#include <algorithm>
#include <sstream>

#include "core/shift_controller.h"
#include "util/logging.h"

namespace shiftpar::core {

AutoTuner::AutoTuner(model::ModelConfig model, hw::Node node)
    : model_(std::move(model)), node_(std::move(node))
{
    model_.validate();
}

std::vector<Deployment>
AutoTuner::candidates(const TuneOptions& options) const
{
    std::vector<Deployment> out;
    const auto add = [&](Deployment d) {
        // Keep only candidates that resolve and fit; resolve() is fatal on
        // misfit, so pre-check with the same memory math.
        const std::string err = parallel::validate_config(
            model_, {d.sp > 0 ? d.sp : 1, d.tp > 0 ? d.tp : 1, d.ep});
        (void)err;  // degree-validity is re-checked per concrete config
        out.push_back(std::move(d));
    };

    std::vector<int> ep_degrees = {1};
    if (options.sweep_ep && model_.is_moe()) {
        for (int ep = 2; ep <= node_.num_gpus; ep *= 2)
            if (model_.num_experts % ep == 0)
                ep_degrees.push_back(ep);
    }

    for (parallel::Strategy s : options.strategies) {
        for (int ep : ep_degrees) {
            Deployment base;
            base.model = model_;
            base.node = node_;
            base.strategy = s;
            base.ep = ep;
            if (s == parallel::Strategy::kSp ||
                s == parallel::Strategy::kShift) {
                // Sweep (SP, TP) decompositions of the whole node.
                for (int tp = 1; tp <= node_.num_gpus; tp *= 2) {
                    const int sp = node_.num_gpus / tp;
                    if (sp < 2)
                        continue;  // SP degenerates to TP
                    const parallel::ParallelConfig cfg{sp, tp, ep};
                    if (!parallel::validate_config(model_, cfg).empty())
                        continue;
                    const auto plan = parallel::plan_memory(
                        model_, node_.gpu, cfg,
                        s == parallel::Strategy::kShift, base.weights,
                        base.mem);
                    if (!plan.fits() ||
                        plan.kv_pool_bytes <
                            kMinKvFraction * node_.gpu.hbm_bytes)
                        continue;
                    Deployment d = base;
                    d.sp = sp;
                    d.tp = tp;
                    add(d);
                    if (s == parallel::Strategy::kShift &&
                        options.sweep_threshold) {
                        const parallel::PerfModel perf(node_, model_,
                                                       d.perf);
                        const std::int64_t th =
                            ShiftController::auto_threshold(perf, cfg);
                        for (std::int64_t scaled :
                             {th / 4, th * 4}) {
                            if (scaled < 1)
                                continue;
                            Deployment dt = d;
                            dt.shift_threshold = scaled;
                            add(dt);
                        }
                    }
                }
            } else {
                const parallel::ParallelConfig probe{
                    1, s == parallel::Strategy::kTp ? node_.num_gpus : 1,
                    ep};
                if (!parallel::validate_config(model_, probe).empty())
                    continue;
                const auto plan = parallel::plan_memory(
                    model_, node_.gpu, probe, false, base.weights,
                    base.mem);
                if (!plan.fits())
                    continue;
                add(base);
            }
        }
    }
    if (out.empty())
        fatal("no deployment of '" + model_.name + "' fits node '" +
              node_.gpu.name + "'");
    return out;
}

std::vector<TuneResult>
AutoTuner::tune(const std::vector<engine::RequestSpec>& sample,
                const TuneObjective& objective,
                const TuneOptions& options) const
{
    SP_ASSERT(!sample.empty(), "tuning needs a sample workload");
    std::vector<TuneResult> results;
    for (const Deployment& d : candidates(options)) {
        TuneResult r;
        r.deployment = d;
        r.resolved = resolve(d);
        const engine::Metrics met = run_deployment(d, sample);
        r.mean_completion = met.completion().mean();
        r.ttft_p99 = met.ttft().percentile(99);
        r.throughput = met.mean_throughput();
        std::ostringstream name;
        name << parallel::strategy_name(d.strategy) << " "
             << r.resolved.base.to_string();
        if (d.strategy == parallel::Strategy::kShift)
            name << " thr=" << r.resolved.shift_threshold;
        r.name = name.str();
        results.push_back(std::move(r));
    }

    // Normalize each term against the best candidate and combine.
    double best_completion = 1e300;
    double best_ttft = 1e300;
    double best_thr = 0.0;
    for (const auto& r : results) {
        best_completion = std::min(best_completion, r.mean_completion);
        best_ttft = std::min(best_ttft, r.ttft_p99);
        best_thr = std::max(best_thr, r.throughput);
    }
    for (auto& r : results) {
        r.score =
            objective.completion *
                (r.mean_completion / std::max(best_completion, 1e-12)) +
            objective.ttft_p99 *
                (r.ttft_p99 / std::max(best_ttft, 1e-12)) +
            objective.throughput *
                (best_thr / std::max(r.throughput, 1e-12));
    }
    std::stable_sort(results.begin(), results.end(),
                     [](const TuneResult& a, const TuneResult& b) {
                         return a.score < b.score;
                     });
    return results;
}

} // namespace shiftpar::core
