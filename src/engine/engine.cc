#include "engine/engine.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "obs/metrics_registry.h"
#include "util/logging.h"

namespace shiftpar::engine {

Engine::Engine(const hw::Node& node, const model::ModelConfig& m,
               EngineConfig cfg, std::unique_ptr<ExecutionPolicy> policy)
    : model_(m), cfg_(cfg),
      cost_model_(parallel::make_cost_model(cfg.cost, node, m, cfg.perf)),
      mem_plan_(parallel::plan_memory(m, node.gpu, cfg.base,
                                      cfg.with_shift_model, cfg.weights,
                                      cfg.mem)),
      cache_(mem_plan_.kv_token_capacity,
             kvcache::KvLayout::base(m, cfg.base), cfg.block_size),
      shift_layout_(kvcache::KvLayout::shift(m, cfg.base)),
      scheduler_(cfg.sched, &cache_), policy_(std::move(policy)),
      metrics_(cfg.throughput_bin)
{
    SP_ASSERT(policy_ != nullptr);
    if (!mem_plan_.fits()) {
        fatal("model '" + m.name + "' does not fit under " +
              cfg.base.to_string() + ": " + parallel::describe(mem_plan_));
    }
    // Section 3.3.1: the SP_TP-ordered shift configuration must be KV-cache
    // invariant with the base configuration by construction.
    cache_.assert_invariant_with(shift_layout_);
    if (cfg_.trace) {
        scheduler_.set_trace(cfg_.trace, cfg_.trace_id);
        cache_.set_trace(cfg_.trace, cfg_.trace_id, &now_);
        policy_->attach_trace(cfg_.trace, cfg_.trace_id, &now_);
    }
}

void
Engine::submit(const RequestSpec& spec, RequestId id, bool migrated_in)
{
    SP_ASSERT(!failed_, "submit to a failed engine");
    SP_ASSERT(!draining_, "submit to a draining engine");
    SP_ASSERT(spec.prompt_tokens >= 1 && spec.output_tokens >= 1,
              "requests need at least one prompt and one output token");
    SP_ASSERT(spec.prefix_tokens >= 0 &&
                  spec.prefix_tokens <= spec.prompt_tokens,
              "prefix must be a leading slice of the prompt");
    if (spec.prompt_tokens + spec.output_tokens > model_.max_context) {
        fatal("request exceeds " + model_.name + "'s context window: " +
              std::to_string(spec.prompt_tokens + spec.output_tokens) +
              " > " + std::to_string(model_.max_context) + " tokens");
    }
    enqueue_new(spec, id, migrated_in, /*already_decoded=*/0);
}

void
Engine::submit_prefilled(const RequestSpec& spec, RequestId id,
                         std::int64_t already_decoded)
{
    SP_ASSERT(spec.prompt_tokens >= 1 && spec.output_tokens >= 1);
    SP_ASSERT(already_decoded >= 1 && already_decoded < spec.output_tokens,
              "a prefilled request needs at least one token left to decode");
    enqueue_new(spec, id, /*migrated_in=*/false, already_decoded);
}

void
Engine::enqueue_new(const RequestSpec& spec, RequestId id, bool migrated_in,
                    std::int64_t already_decoded)
{
    const auto [it, inserted] = live_.try_emplace(id);
    SP_ASSERT(inserted, "request ", id, " is already live here");
    Request* req = &it->second;
    req->id = id;
    req->spec = spec;
    req->prefill_target = spec.prompt_tokens;
    req->migrated_in = migrated_in;
    if (already_decoded > 0) {
        // Prefilled elsewhere: the KV materializes on admission, and the
        // prefill worker produced the first token.
        req->prefilled = spec.prompt_tokens;
        req->decoded = already_decoded;
        req->first_token = spec.arrival;
    }
    scheduler_.enqueue(req);
    if (cfg_.trace) {
        cfg_.trace->publish_request({cfg_.trace_id, id,
                                     obs::RequestPhase::kSubmit,
                                     spec.arrival, spec.prompt_tokens});
    }
    notify_ready_changed();
}

bool
Engine::cancel(RequestId id)
{
    const auto it = live_.find(id);
    if (it == live_.end())
        return false;
    Request* r = &it->second;
    scheduler_.cancel(r);
    free_terminal({&r, 1});
    if (cfg_.trace) {
        cfg_.trace->publish_request(
            {cfg_.trace_id, id, obs::RequestPhase::kCancel, now_, 0});
    }
    notify_ready_changed();  // may have been the engine's last work
    return true;
}

bool
Engine::queued_unscheduled(RequestId id) const
{
    const auto it = live_.find(id);
    return it != live_.end() &&
           it->second.state == RequestState::kWaiting &&
           it->second.first_scheduled < 0.0;
}

void
Engine::free_terminal(std::span<Request* const> done)
{
    for (const Request* r : done)
        live_.erase(RequestId{r->id});  // a copy: erasing frees *r
    SP_DEBUG_ASSERT(live_requests() == scheduler_.num_waiting() +
                                           scheduler_.num_running(),
                    "request conservation broken: the engine holds a "
                    "request the scheduler has neither waiting nor running");
    SP_DEBUG_ASSERT(scheduler_.consistent(),
                    "scheduler drifted from its queues");
}

std::vector<std::pair<RequestSpec, RequestId>>
Engine::hand_back(const std::vector<Request*>& done)
{
    std::vector<std::pair<RequestSpec, RequestId>> out;
    out.reserve(done.size());
    for (const Request* r : done)
        out.emplace_back(r->spec, r->id);
    free_terminal(done);
    return out;
}

std::vector<std::pair<RequestSpec, RequestId>>
Engine::start_drain(double t)
{
    SP_ASSERT(!failed_, "start_drain on a failed engine");
    SP_ASSERT(!draining_, "start_drain on an already-draining engine");
    draining_ = true;
    now_ = std::max(now_, t);
    auto out = hand_back(scheduler_.drain_waiting());
    if (cfg_.trace) {
        cfg_.trace->on_fault({cfg_.trace_id, obs::FaultKind::kDrainStart,
                              now_, 0.0, std::ssize(out)});
    }
    notify_ready_changed();  // the hand-back may have emptied the queue
    return out;
}

void
Engine::resume_admission(double t)
{
    SP_ASSERT(draining_, "resume_admission on a non-draining engine");
    draining_ = false;
    now_ = std::max(now_, t);
    if (cfg_.trace)
        cfg_.trace->on_fault({cfg_.trace_id, obs::FaultKind::kDrainEnd, now_});
    notify_ready_changed();
}

std::vector<std::pair<RequestSpec, RequestId>>
Engine::fail(double t)
{
    SP_ASSERT(!failed_, "engine failed twice without recovering");
    failed_ = true;
    draining_ = false;  // fail-stop trumps a drain in progress
    now_ = std::max(now_, t);
    slowdown_ = 1.0;

    auto out = hand_back(scheduler_.fail_all());

    // HBM dies with the rank group: every prefix entry (the drop just
    // unpinned the live ones) is destroyed too, so a recovered engine
    // restarts cold.
    cache_.drop_unpinned_prefixes();
    SP_ASSERT(cache_.used_blocks() == 0 && cache_.prefix_entry_count() == 0,
              "failed engine still holds KV state");

    if (cfg_.trace) {
        cfg_.trace->on_fault({cfg_.trace_id, obs::FaultKind::kFail, now_,
                              0.0, std::ssize(out)});
    }
    notify_ready_changed();  // failed: no events until recover()
    return out;
}

void
Engine::recover(double t)
{
    SP_ASSERT(failed_, "recover() on a healthy engine");
    failed_ = false;
    now_ = std::max(now_, t);
    if (cfg_.trace)
        cfg_.trace->on_fault({cfg_.trace_id, obs::FaultKind::kRecover, now_});
    notify_ready_changed();
}

void
Engine::set_slowdown(double factor, double t)
{
    SP_ASSERT(factor >= 1.0);
    slowdown_ = factor;
    if (cfg_.trace) {
        cfg_.trace->on_fault({cfg_.trace_id,
                              factor > 1.0 ? obs::FaultKind::kStraggleStart
                                           : obs::FaultKind::kStraggleEnd,
                              t, factor});
    }
}

void
Engine::record_cost_metrics(
    const parallel::StepTiming& timing,
    const std::vector<parallel::KernelCost>& breakdown) const
{
    obs::MetricsRegistry& reg = obs::MetricsRegistry::current();
    reg.counter_add("shiftpar_costmodel_evals_total", 1,
                    {{"model", cost_model_->name()}});
    const double total = timing.total();
    if (total <= 0.0)
        return;
    for (const parallel::KernelCost& k : breakdown) {
        reg.observe("shiftpar_costmodel_kernel_share", k.seconds / total,
                    {{"kernel", k.kernel}});
    }
}

bool
Engine::expire_now()
{
    const std::vector<Request*> expired = scheduler_.expire_due(now_);
    if (expired.empty())
        return false;
    for (const Request* r : expired) {
        if (on_expire_)
            on_expire_(r->id);
    }
    free_terminal(expired);
    // No notify_ready_changed() here: expire_now runs inside advance_to,
    // i.e. mid-grant, where re-posting the ready time stales the cluster
    // entry the loop is currently granting. Every expiry path returns
    // true, and the cluster loop republishes via refresh_ready after any
    // true grant — so the ready time is re-announced either way.
    return true;
}

bool
Engine::step()
{
    // Deadline expiry precedes scheduling so a past-deadline request
    // never takes another token of compute; eviction alone is progress.
    const bool expired = expire_now();
    const BatchPlan& plan = scheduler_.schedule(now_);
    if (plan.empty())
        return expired;

    const parallel::BatchWork& work = plan.work();
    const std::int64_t batched = work.total_new_tokens();
    const ExecutionPolicy::Choice choice = policy_->choose(batched);

    // Every mode switch must be KV-layout safe. The base configuration owns
    // the cache layout; the only other legal configuration is the
    // SP_TP-ordered shift config.
    if (!(choice.cfg == cfg_.base)) {
        SP_ASSERT(choice.cfg == cfg_.base.shift_config(),
                  "policy chose a configuration outside {base, shift}");
        cache_.assert_invariant_with(shift_layout_);
    }

    std::vector<parallel::KernelCost> breakdown;
    parallel::StepTiming timing = cost_model_->evaluate(
        work, choice.cfg, choice.sliced,
        cfg_.cost_metrics ? &breakdown : nullptr);
    if (cfg_.cost_metrics)
        record_cost_metrics(timing, breakdown);
    // Straggler multiplier; a healthy engine's is exactly 1.0, and
    // x * 1.0 == x, so its timings stay the same doubles.
    timing.gemm *= slowdown_;
    timing.attention *= slowdown_;
    timing.comm *= slowdown_;
    timing.overhead *= slowdown_;

    obs::StepEvent ev;
    ev.engine = cfg_.trace_id;
    ev.start = now_;
    now_ += timing.total();
    ev.end = now_;
    ev.batched_tokens = batched;
    ev.num_seqs = work.num_seqs();
    ev.cfg = choice.cfg;
    ev.shifted = !(choice.cfg == cfg_.base);
    ev.sliced = choice.sliced;
    ev.timing = timing;
    metrics_.on_step(ev);
    if (cfg_.trace)
        cfg_.trace->on_step(ev);

    finished_.clear();
    scheduler_.on_step_complete(now_, plan, &finished_);
    for (const Request* r : finished_) {
        if (on_finish_ && !on_finish_(*r))
            continue;  // duplicate copy of an already-settled request
        metrics_.on_request_finished(*r);
    }
    free_terminal(finished_);

    if (cfg_.trace) {
        obs::GaugeEvent g;
        g.engine = cfg_.trace_id;
        g.t = now_;
        g.kv_utilization = cache_.utilization();
        g.kv_free_tokens = cache_.free_tokens();
        g.waiting = static_cast<std::int64_t>(scheduler_.num_waiting());
        g.running = static_cast<std::int64_t>(scheduler_.num_running());
        g.outstanding_tokens = scheduler_.outstanding_tokens();
        cfg_.trace->on_gauge(g);
    }
    return true;
}

double
Engine::next_event_time() const
{
    if (failed_ || !has_work())
        return std::numeric_limits<double>::infinity();
    if (scheduler_.num_running() > 0)
        return now_;
    // A pending deadline wakes an otherwise-idle engine so expiry fires
    // at the right instant (earliest_deadline() is +inf without one).
    const double next = std::min(scheduler_.earliest_waiting_arrival(),
                                 scheduler_.earliest_deadline());
    return next <= now_ ? now_ : next;
}

bool
Engine::advance_to([[maybe_unused]] double t)
{
    SP_DEBUG_ASSERT(t == next_event_time(), "engine granted t = ", t,
                    " but its next event is at ", next_event_time());
    if (failed_ || !has_work())
        return false;
    if (scheduler_.num_running() == 0) {
        const double next = scheduler_.earliest_waiting_arrival();
        if (next > now_) {
            // Only later arrivals wait, so the grant is max(now_, wake),
            // and wake is finite because a request is waiting.
            const double wake =
                std::min(next, scheduler_.earliest_deadline());
            now_ = wake;  // skip idle time to the arrival or deadline
            if (wake < next)
                expire_now();
            return true;
        }
    }
    // Here the grant is now_: a step that fails (KV-blocked) leaves no
    // later deadline inside the window to jump to.
    return step();
}

std::optional<std::pair<RequestSpec, RequestId>>
Engine::steal_waiting(std::int64_t max_tokens)
{
    Request* r = scheduler_.steal_waiting(now_, max_tokens);
    if (r == nullptr)
        return std::nullopt;
    auto out = std::make_pair(r->spec, r->id);
    free_terminal({&r, 1});
    notify_ready_changed();  // may have been the engine's last work
    return out;
}

} // namespace shiftpar::engine
