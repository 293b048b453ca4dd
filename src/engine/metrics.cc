#include "engine/metrics.h"

#include <algorithm>

#include "util/logging.h"

namespace shiftpar::engine {

Metrics::Metrics(double throughput_bin)
    : throughput_(throughput_bin)
{
}

void
Metrics::on_request_finished(const Request& r)
{
    SP_ASSERT(r.done() && r.finished >= 0.0);
    RequestRecord rec;
    rec.id = r.id;
    rec.arrival = r.spec.arrival;
    rec.prompt_tokens = r.spec.prompt_tokens;
    rec.output_tokens = r.spec.output_tokens;
    rec.ttft = r.ttft();
    rec.tpot = r.tpot();
    rec.completion = r.completion();
    rec.wait = r.first_scheduled - r.spec.arrival;
    rec.preemptions = r.preemptions;
    add_record(rec);
}

void
Metrics::add_record(const RequestRecord& rec)
{
    requests_.push_back(rec);
    ttft_.add(rec.ttft);
    if (rec.output_tokens > 1)
        tpot_.add(rec.tpot);
    completion_.add(rec.completion);
    wait_.add(rec.wait);
}

void
Metrics::on_step(const obs::StepEvent& step)
{
    SP_ASSERT(step.end >= step.start && step.start >= 0.0,
              "malformed step record");
    throughput_.add(step.end, static_cast<double>(step.batched_tokens));
    component_totals_ += step.timing;
    total_tokens_ += step.batched_tokens;
    if (step.cfg.sp > 1)
        ++sp_steps_;
    else
        ++tp_steps_;
    end_time_ = std::max(end_time_, step.end);
}

void
Metrics::merge(const Metrics& other)
{
    // merge_steps rejects a self-merge before the request loop could grow
    // the vector it walks. Requests replay through add_record so the
    // histograms match direct accumulation.
    merge_steps(other);
    for (const auto& rec : other.requests_)
        add_record(rec);
}

void
Metrics::merge_steps(const Metrics& other)
{
    SP_ASSERT(&other != this, "cannot merge a Metrics into itself");
    // Bins hold integer token counts and the counts are integers, so these
    // sums equal re-adding every step; only component_totals_ rounds in a
    // different order (one add per engine instead of per step).
    throughput_.merge(other.throughput_);
    component_totals_ += other.component_totals_;
    total_tokens_ += other.total_tokens_;
    sp_steps_ += other.sp_steps_;
    tp_steps_ += other.tp_steps_;
    end_time_ = std::max(end_time_, other.end_time_);
}

double
Metrics::mean_throughput() const
{
    return end_time_ > 0.0
               ? static_cast<double>(total_tokens_) / end_time_
               : 0.0;
}

double
Metrics::slo_attainment(const SloSpec& slo) const
{
    if (requests_.empty())
        return 0.0;
    std::size_t ok = 0;
    for (const auto& r : requests_) {
        const bool tpot_ok = r.output_tokens <= 1 || r.tpot <= slo.tpot;
        ok += r.ttft <= slo.ttft && tpot_ok;
    }
    return static_cast<double>(ok) / static_cast<double>(requests_.size());
}

double
Metrics::goodput(const SloSpec& slo) const
{
    if (end_time_ <= 0.0)
        return 0.0;
    double tokens = 0.0;
    for (const auto& r : requests_) {
        const bool tpot_ok = r.output_tokens <= 1 || r.tpot <= slo.tpot;
        if (r.ttft <= slo.ttft && tpot_ok)
            tokens += static_cast<double>(r.prompt_tokens +
                                          r.output_tokens);
    }
    return tokens / end_time_;
}

} // namespace shiftpar::engine
