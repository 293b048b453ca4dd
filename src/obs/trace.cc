#include "obs/trace.h"

namespace shiftpar::obs {

const char*
phase_name(RequestPhase phase)
{
    switch (phase) {
      case RequestPhase::kSubmit:        return "submit";
      case RequestPhase::kRouted:        return "routed";
      case RequestPhase::kMigrated:      return "migrated";
      case RequestPhase::kFirstSchedule: return "first_schedule";
      case RequestPhase::kPrefillChunk:  return "prefill_chunk";
      case RequestPhase::kPreempt:       return "preempt";
      case RequestPhase::kResume:        return "resume";
      case RequestPhase::kFirstToken:    return "first_token";
      case RequestPhase::kFinish:        return "finish";
      case RequestPhase::kCancel:        return "cancel";
      case RequestPhase::kRetried:       return "retried";
      case RequestPhase::kLost:          return "lost";
      case RequestPhase::kShed:          return "shed";
      case RequestPhase::kExpired:       return "expired";
      case RequestPhase::kHedged:        return "hedged";
      case RequestPhase::kHedgeWon:      return "hedge_won";
      case RequestPhase::kHedgeLost:     return "hedge_lost";
      case RequestPhase::kDrained:       return "drained";
    }
    return "?";
}

const char*
fault_kind_name(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kFail:          return "fail";
      case FaultKind::kRecover:       return "recover";
      case FaultKind::kStraggleStart: return "straggle_start";
      case FaultKind::kStraggleEnd:   return "straggle_end";
      case FaultKind::kDrainStart:    return "drain_start";
      case FaultKind::kDrainEnd:      return "drain_end";
      case FaultKind::kBreakerOpen:   return "breaker_open";
      case FaultKind::kBreakerHalfOpen: return "breaker_half_open";
      case FaultKind::kBreakerClose:  return "breaker_close";
    }
    return "?";
}

EngineId
TraceSink::register_engine(EngineMeta meta)
{
    std::lock_guard<std::mutex> lock(register_mutex_);
    meta.engine = next_engine_++;
    on_engine_meta(meta);
    return meta.engine;
}

void
TraceSink::publish_request(RequestEvent ev)
{
    {
        std::lock_guard<std::mutex> lock(span_mutex_);
        ev.span = next_span_[ev.request]++;
    }
    on_request(ev);
}

void
TraceSink::set_run_label(const std::string& label)
{
    {
        // Request ids restart at 0 per run, so span chains do too —
        // without the reset, run 2's request 0 would continue run 1's
        // numbering and the chains would interleave.
        std::lock_guard<std::mutex> lock(span_mutex_);
        next_span_.clear();
    }
    on_run_label(label);
}

} // namespace shiftpar::obs
