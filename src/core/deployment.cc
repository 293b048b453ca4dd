#include "core/deployment.h"

#include <sstream>

#include "core/shift_controller.h"
#include "util/logging.h"
#include "util/units.h"

namespace shiftpar::core {

namespace {

/**
 * Smallest TP degree (power-of-two divisor of the node) at which the model
 * fits each GPU with at least `kMinKvFraction` of HBM left for KV cache.
 */
int
min_tp_that_fits(const Deployment& d, bool with_shift_model)
{
    for (int tp = 1; tp <= d.node.num_gpus; tp *= 2) {
        const parallel::ParallelConfig probe{1, tp};
        if (!parallel::validate_config(d.model, probe).empty())
            continue;
        // Shift-weight reservation scales with the eventual SP degree; use
        // the worst case (the full remaining node as SP) for the fit test.
        const int sp = d.node.num_gpus / tp;
        const parallel::ParallelConfig full{sp, tp};
        if (!parallel::validate_config(d.model, full).empty())
            continue;
        const auto plan = parallel::plan_memory(
            d.model, d.node.gpu, full, with_shift_model && sp > 1, d.weights,
            d.mem);
        if (plan.fits() &&
            plan.kv_pool_bytes >= kMinKvFraction * d.node.gpu.hbm_bytes) {
            return tp;
        }
    }
    fatal("model '" + d.model.name + "' does not fit on node '" +
          d.node.gpu.name + "' at any TP degree");
}

} // namespace

std::string
ResolvedDeployment::describe() const
{
    std::ostringstream os;
    os << replicas << " engine(s) x " << base.to_string();
    if (shift_threshold > 0)
        os << ", shift threshold " << shift_threshold << " tokens";
    // Mentioned only off the default so existing run descriptions (and the
    // reports pinned against them) keep their exact bytes.
    if (cost_kind != model::CostModelKind::kRoofline)
        os << ", cost model " << model::cost_model_kind_name(cost_kind);
    os << ", " << parallel::describe(memory);
    return os.str();
}

ResolvedDeployment
resolve(const Deployment& d)
{
    ResolvedDeployment r;
    r.sched = d.sched;
    r.perf = d.perf;
    r.cost_kind = d.cost.kind;
    if (d.swiftkv)
        d.swiftkv->apply(&r.perf);
    if (d.spec_decode)
        d.spec_decode->apply(&r.sched, &r.perf);

    const int gpus = d.node.num_gpus;
    switch (d.strategy) {
      case parallel::Strategy::kDp: {
        const int tp = d.tp > 0 ? d.tp : min_tp_that_fits(d, false);
        r.base = {1, tp};
        r.replicas = gpus / tp;
        break;
      }
      case parallel::Strategy::kTp:
        r.base = {1, d.tp > 0 ? d.tp : gpus};
        break;
      case parallel::Strategy::kSp: {
        const int tp = d.tp > 0 ? d.tp : min_tp_that_fits(d, false);
        r.base = {d.sp > 0 ? d.sp : gpus / tp, tp};
        break;
      }
      case parallel::Strategy::kSpTp: {
        SP_ASSERT(d.sp > 0 && d.tp > 0,
                  "SP+TP strategy requires explicit sp and tp");
        r.base = {d.sp, d.tp};
        break;
      }
      case parallel::Strategy::kShift: {
        const int tp = d.tp > 0 ? d.tp : min_tp_that_fits(d, true);
        r.base = {d.sp > 0 ? d.sp : gpus / tp, tp};
        r.with_shift_model =
            d.weights == parallel::WeightStrategy::kSeparateModels &&
            r.base.sp > 1;
        break;
      }
    }
    if (d.ep > 1)
        r.base.ep = d.ep;
    parallel::validate_config_or_die(d.model, r.base);
    SP_ASSERT(r.base.world() * r.replicas <= gpus,
              "deployment exceeds node GPU count");

    r.memory = parallel::plan_memory(d.model, d.node.gpu, r.base,
                                     r.with_shift_model, d.weights, d.mem);
    if (!r.memory.fits()) {
        fatal("deployment does not fit: " + parallel::describe(r.memory));
    }

    if (d.strategy == parallel::Strategy::kShift) {
        if (d.shift_threshold >= 0) {
            r.shift_threshold = d.shift_threshold;
        } else {
            // The threshold crossover is found under the same cost model
            // the engines will run with; the default spec constructs the
            // roofline model with the exact pre-interface arguments.
            const auto cost =
                parallel::make_cost_model(d.cost, d.node, d.model, r.perf);
            r.shift_threshold =
                ShiftController::auto_threshold(*cost, r.base);
        }
    }
    return r;
}

std::unique_ptr<engine::Router>
build(const Deployment& d)
{
    return build(d, resolve(d));
}

std::unique_ptr<engine::Router>
build(const Deployment& d, const ResolvedDeployment& r)
{
    engine::EngineConfig ecfg;
    ecfg.base = r.base;
    ecfg.sched = r.sched;
    ecfg.perf = r.perf;
    ecfg.mem = d.mem;
    ecfg.cost = d.cost;
    // Kernel-share telemetry piggybacks on the profiling opt-in: metrics
    // are pure observation, but only profiled runs pay for them.
    ecfg.cost_metrics = d.profile != nullptr;
    ecfg.weights = d.weights;
    ecfg.with_shift_model = r.with_shift_model;
    ecfg.block_size = d.block_size;
    ecfg.throughput_bin = d.throughput_bin;

    std::vector<std::unique_ptr<engine::Engine>> engines;
    for (int i = 0; i < r.replicas; ++i) {
        std::unique_ptr<engine::ExecutionPolicy> policy;
        if (d.strategy == parallel::Strategy::kShift && r.base.sp > 1) {
            policy = std::make_unique<ShiftController>(
                r.base, r.shift_threshold, d.weights);
        } else {
            policy = std::make_unique<engine::FixedPolicy>(r.base);
        }
        if (d.trace) {
            obs::EngineMeta meta;
            meta.label =
                "engine " + std::to_string(i) + " " + r.base.to_string();
            meta.base = r.base;
            meta.shift_threshold = r.shift_threshold;
            ecfg.trace = d.trace;
            ecfg.trace_id = d.trace->register_engine(meta);
        }
        engines.push_back(std::make_unique<engine::Engine>(
            d.node, d.model, ecfg, std::move(policy)));
    }
    auto router =
        std::make_unique<engine::Router>(std::move(engines), d.routing);
    router->set_trace(d.trace);
    router->set_profile(d.profile);
    router->set_faults(d.faults, d.resilience);
    router->set_overload(d.overload);
    router->set_cancellations(d.cancellations);
    return router;
}

engine::Metrics
run_deployment(const Deployment& d,
               const std::vector<engine::RequestSpec>& workload)
{
    auto router = build(d);
    return router->run_workload(workload);
}

} // namespace shiftpar::core
