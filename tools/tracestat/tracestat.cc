#include "tracestat.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/stats.h"

namespace shiftpar::tools {

namespace {

/** One shift/unshift transition on an engine's mode track. */
struct ModeFlip
{
    double t = 0.0;       ///< seconds
    bool to_shift = false;
};

/** Microsecond trace timestamps back to simulated seconds. */
double
seconds(const util::JsonValue& ev)
{
    return ev.at("ts").num() / 1e6;
}

template <typename Int>
Int
arg_int(const util::JsonValue& ev, const std::string& key, Int fallback)
{
    if (!ev.has("args"))
        return fallback;
    const util::JsonValue& args = ev.at("args");
    if (!args.has(key))
        return fallback;
    return args.at(key).integer<Int>();
}

bool
has_arg(const util::JsonValue& ev, const std::string& key)
{
    return ev.has("args") && ev.at("args").has(key);
}

/** Split a "pid:request" async id. */
std::pair<int, std::int64_t>
parse_request_id(const std::string& id)
{
    const std::size_t colon = id.find(':');
    if (colon == std::string::npos)
        throw std::runtime_error("malformed request id '" + id + "'");
    try {
        return {std::stoi(id.substr(0, colon)),
                std::stoll(id.substr(colon + 1))};
    } catch (const std::exception&) {
        throw std::runtime_error("malformed request id '" + id + "'");
    }
}

/** Seconds of [a, b] spent in shift mode given an engine's flip list. */
double
shift_overlap(const std::vector<ModeFlip>& flips, double a, double b)
{
    if (b <= a)
        return 0.0;
    double total = 0.0;
    bool shifted = false;  // engines start in the base config
    double prev = a;
    for (const ModeFlip& f : flips) {
        if (f.t <= a) {
            shifted = f.to_shift;
            continue;
        }
        if (f.t >= b)
            break;
        if (shifted)
            total += f.t - prev;
        prev = std::max(prev, f.t);
        shifted = f.to_shift;
    }
    if (shifted)
        total += b - prev;
    return total;
}

StageStats
summarize_stage(const std::string& name, const Summary& s)
{
    StageStats st;
    st.name = name;
    st.count = s.count();
    st.mean = s.mean();
    st.p50 = s.percentile(50.0);
    st.p90 = s.percentile(90.0);
    st.p99 = s.percentile(99.0);
    st.max = s.max();
    return st;
}

/** printf into an ostream (keeps the aligned-table code readable). */
void
emit(std::ostream& os, const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

void
emit(std::ostream& os, const char* fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    os << buf;
}

} // namespace

double
RequestTimeline::queue_s() const
{
    if (submit < 0.0 || first_schedule < 0.0)
        return 0.0;
    return first_schedule - submit;
}

double
RequestTimeline::prefill_s() const
{
    if (first_schedule < 0.0 || first_token < 0.0)
        return 0.0;
    return first_token - first_schedule;
}

double
RequestTimeline::decode_s() const
{
    if (first_token < 0.0 || finish < 0.0)
        return 0.0;
    return finish - first_token;
}

double
RequestTimeline::total_s() const
{
    if (submit < 0.0 || finish < 0.0)
        return -1.0;
    return finish - submit;
}

const char*
RequestTimeline::outcome() const
{
    if (finished)
        return "finished";
    if (expired)
        return "expired";
    if (cancelled)
        return "cancelled";
    if (lost)
        return "lost";
    if (shed)
        return "shed";
    return "open";
}

TraceStats
analyze_trace(const util::JsonValue& root)
{
    if (!root.is_object() || !root.has("traceEvents"))
        throw std::runtime_error("not a Chrome trace: no traceEvents array");

    // Keyed containers keep the pass deterministic: requests sort by
    // (process, id), mode flips attach to engine pids.
    std::map<std::pair<int, std::int64_t>, RequestTimeline> requests;
    std::map<int, std::vector<ModeFlip>> mode_flips;

    for (const util::JsonValue& ev : root.at("traceEvents").arr()) {
        const std::string cat = ev.has("cat") ? ev.at("cat").str() : "";
        if (cat == "mode") {
            ModeFlip flip;
            flip.t = seconds(ev);
            flip.to_shift = ev.at("name").str() == "shift";
            mode_flips[ev.at("pid").integer<int>()].push_back(flip);
            continue;
        }
        if (cat != "request")
            continue;

        const auto key = parse_request_id(ev.at("id").str());
        RequestTimeline& r = requests[key];
        r.process = key.first;
        r.request = key.second;
        const double t = seconds(ev);
        const std::string ph = ev.at("ph").str();
        const std::string& name = ev.at("name").str();

        if (ph == "b") {
            if (r.submit < 0.0)
                r.submit = t;
            r.prompt_tokens = arg_int(ev, "prompt_tokens", r.prompt_tokens);
        } else if (ph == "e") {
            r.finish = t;
            if (has_arg(ev, "cancelled"))
                r.cancelled = true;
            else if (has_arg(ev, "expired"))
                r.expired = true;
            else if (has_arg(ev, "lost"))
                r.lost = true;
            else
                r.finished = true;
            r.output_tokens = arg_int(ev, "output_tokens", r.output_tokens);
        } else if (ph == "n") {
            if (name == "first_schedule") {
                if (r.first_schedule < 0.0)
                    r.first_schedule = t;
            } else if (name == "first_token") {
                if (r.first_token < 0.0) {
                    r.first_token = t;
                    r.engine = arg_int(ev, "engine", r.engine);
                }
            } else if (name == "prefill_chunk") {
                ++r.prefill_chunks;
            } else if (name == "preempt") {
                ++r.preempts;
            } else if (name == "migrated") {
                ++r.migrations;
            } else if (name == "retried") {
                ++r.retries;
            } else if (name == "resubmit") {
                ++r.resubmits;
            } else if (name == "hedged") {
                ++r.hedges;
            } else if (name == "hedge_won") {
                ++r.hedge_wins;
            } else if (name == "hedge_lost") {
                ++r.hedge_losses;
            } else if (name == "drained") {
                ++r.drains;
            } else if (name == "shed") {
                r.shed = true;
                if (r.submit < 0.0)
                    r.submit = t;
            } else if (name == "lost") {
                r.lost = true;
            }
            // routed/resume and future markers carry no stage boundary.
        }
    }

    for (auto& [pid, flips] : mode_flips) {
        std::stable_sort(flips.begin(), flips.end(),
                         [](const ModeFlip& a, const ModeFlip& b) {
                             return a.t < b.t;
                         });
    }

    TraceStats stats;
    Summary queue, prefill, decode, total;
    double decode_sum = 0.0;
    double shift_sum = 0.0;
    double queue_sum = 0.0;
    double total_sum = 0.0;
    for (auto& [key, r] : requests) {
        if (r.finished && r.engine >= 0) {
            const auto it = mode_flips.find(r.engine);
            if (it != mode_flips.end()) {
                r.decode_shift_s =
                    shift_overlap(it->second, r.first_token, r.finish);
            }
        }
        if (r.finished) {
            ++stats.completed;
            queue.add(r.queue_s());
            prefill.add(r.prefill_s());
            decode.add(r.decode_s());
            total.add(r.total_s());
            queue_sum += r.queue_s();
            total_sum += r.total_s();
            decode_sum += r.decode_s();
            shift_sum += r.decode_shift_s;
        } else if (r.expired) {
            ++stats.expired;
        } else if (r.cancelled) {
            ++stats.cancelled;
        } else if (r.lost) {
            ++stats.lost;
        } else if (r.shed) {
            ++stats.shed;
        } else {
            ++stats.open;
        }
        stats.preempts += r.preempts;
        stats.migrations += r.migrations;
        stats.retries += r.retries;
        stats.resubmits += r.resubmits;
        stats.hedges += r.hedges;
        stats.hedge_wins += r.hedge_wins;
        stats.hedge_losses += r.hedge_losses;
        stats.drains += r.drains;
        stats.requests.push_back(r);
    }

    stats.stages.push_back(summarize_stage("queue", queue));
    stats.stages.push_back(summarize_stage("prefill", prefill));
    stats.stages.push_back(summarize_stage("decode", decode));
    stats.stages.push_back(summarize_stage("total", total));
    stats.queueing_fraction =
        total_sum > 0.0 ? queue_sum / total_sum : 0.0;
    stats.decode_shift_fraction =
        decode_sum > 0.0 ? shift_sum / decode_sum : 0.0;

    // p99 critical path: stage shares of the requests at/above the p99
    // completion time (ties included, so the set is never empty).
    stats.p99_total_s = total.percentile(99.0);
    double q = 0.0, p = 0.0, d = 0.0;
    for (const RequestTimeline& r : stats.requests) {
        if (!r.finished || r.total_s() < stats.p99_total_s)
            continue;
        ++stats.p99_requests;
        q += r.queue_s();
        p += r.prefill_s();
        d += r.decode_s();
    }
    const double crit = q + p + d;
    if (crit > 0.0) {
        stats.p99_queue_share = q / crit;
        stats.p99_prefill_share = p / crit;
        stats.p99_decode_share = d / crit;
    }
    return stats;
}

TraceStats
analyze_trace_file(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot open trace file '" + path + "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    return analyze_trace(util::parse_json(buf.str()));
}

void
print_report(const TraceStats& stats, std::ostream& os)
{
    emit(os, "tracestat: %zu requests — %zu finished, %zu expired, "
             "%zu cancelled, %zu lost, %zu shed, %zu open\n",
         stats.requests.size(), stats.completed, stats.expired,
         stats.cancelled, stats.lost, stats.shed, stats.open);
    os << "\nstage latency over finished requests (seconds):\n";
    emit(os, "  %-8s %7s %10s %10s %10s %10s %10s\n", "stage", "count",
         "mean", "p50", "p90", "p99", "max");
    for (const StageStats& s : stats.stages) {
        emit(os, "  %-8s %7zu %10.6f %10.6f %10.6f %10.6f %10.6f\n",
             s.name.c_str(), s.count, s.mean, s.p50, s.p90, s.p99, s.max);
    }
    emit(os, "\nqueueing vs service: queue %.1f%% / service %.1f%% of "
             "aggregate latency\n",
         stats.queueing_fraction * 100.0,
         (1.0 - stats.queueing_fraction) * 100.0);
    emit(os, "decode shift share:  %.1f%% of decode seconds in shift "
             "mode\n",
         stats.decode_shift_fraction * 100.0);
    emit(os, "disruptions: %lld preempts, %lld migrations, %lld retries, "
             "%lld resubmits\n",
         static_cast<long long>(stats.preempts),
         static_cast<long long>(stats.migrations),
         static_cast<long long>(stats.retries),
         static_cast<long long>(stats.resubmits));
    emit(os, "lifecycle:   %lld hedges (%lld won, %lld lost), "
             "%lld drain hand-backs\n",
         static_cast<long long>(stats.hedges),
         static_cast<long long>(stats.hedge_wins),
         static_cast<long long>(stats.hedge_losses),
         static_cast<long long>(stats.drains));
    emit(os, "p99 critical path (%zu requests >= p99 total %.6fs): "
             "queue %.1f%% | prefill %.1f%% | decode %.1f%%\n",
         stats.p99_requests, stats.p99_total_s,
         stats.p99_queue_share * 100.0, stats.p99_prefill_share * 100.0,
         stats.p99_decode_share * 100.0);
}

void
write_csv(const TraceStats& stats, std::ostream& os)
{
    os << "process,request,engine,outcome,submit_s,queue_s,prefill_s,"
          "decode_s,total_s,decode_shift_s,prompt_tokens,output_tokens,"
          "prefill_chunks,preempts,migrations,retries,resubmits,hedges,"
          "hedge_wins,hedge_losses,drains\n";
    for (const RequestTimeline& r : stats.requests) {
        emit(os,
             "%d,%lld,%d,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%lld,%lld,%d,"
             "%d,%d,%d,%d,%d,%d,%d,%d\n",
             r.process, static_cast<long long>(r.request), r.engine,
             r.outcome(), r.submit, r.queue_s(), r.prefill_s(),
             r.decode_s(), r.total_s(), r.decode_shift_s,
             static_cast<long long>(r.prompt_tokens),
             static_cast<long long>(r.output_tokens), r.prefill_chunks,
             r.preempts, r.migrations, r.retries, r.resubmits, r.hedges,
             r.hedge_wins, r.hedge_losses, r.drains);
    }
}

} // namespace shiftpar::tools
