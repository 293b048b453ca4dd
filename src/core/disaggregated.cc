#include "core/disaggregated.h"

#include <algorithm>
#include <string>

#include "hw/interconnect.h"
#include "sim/cluster.h"
#include "util/logging.h"

namespace shiftpar::core {

DisaggregatedSystem::DisaggregatedSystem(model::ModelConfig model,
                                         hw::Node node,
                                         DisaggregatedOptions opts)
    : model_(std::move(model)), node_(std::move(node)), opts_(opts),
      prefill_cfg_{1, opts.prefill_gpus}, decode_cfg_{1, opts.decode_gpus}
{
    SP_ASSERT(opts_.prefill_gpus >= 1 && opts_.decode_gpus >= 1);
    if (opts_.prefill_gpus + opts_.decode_gpus > node_.num_gpus) {
        fatal("disaggregated pools exceed the node: " +
              std::to_string(opts_.prefill_gpus) + "+" +
              std::to_string(opts_.decode_gpus) + " > " +
              std::to_string(node_.num_gpus));
    }
    parallel::validate_config_or_die(model_, prefill_cfg_);
    parallel::validate_config_or_die(model_, decode_cfg_);
}

double
DisaggregatedSystem::transfer_delay(std::int64_t tokens) const
{
    // The full KV cache of the context moves from the prefill pool to the
    // decode pool over the node fabric (point-to-point, no reduction).
    const double bytes =
        static_cast<double>(tokens) * model_.kv_bytes_per_token();
    return bytes / (node_.link.bw * node_.link.efficiency) +
           node_.link.latency;
}

engine::Metrics
DisaggregatedSystem::run_workload(
    const std::vector<engine::RequestSpec>& workload)
{
    stats_ = {};
    auto make_engine = [&](const parallel::ParallelConfig& cfg,
                           const char* pool) {
        engine::EngineConfig ecfg;
        ecfg.base = cfg;
        ecfg.sched = opts_.sched;
        ecfg.perf = opts_.perf;
        ecfg.mem = opts_.mem;
        ecfg.throughput_bin = opts_.throughput_bin;
        if (opts_.trace) {
            obs::EngineMeta meta;
            meta.label = std::string(pool) + " pool " + cfg.to_string();
            meta.base = cfg;
            ecfg.trace = opts_.trace;
            ecfg.trace_id = opts_.trace->register_engine(meta);
        }
        return std::make_unique<engine::Engine>(
            node_, model_, ecfg,
            std::make_unique<engine::FixedPolicy>(cfg));
    };
    auto prefill = make_engine(prefill_cfg_, "prefill");
    auto decode = make_engine(decode_cfg_, "decode");

    std::vector<engine::RequestSpec> sorted = workload;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const engine::RequestSpec& a,
                        const engine::RequestSpec& b) {
                         return a.arrival < b.arrival;
                     });
    const std::size_t n = sorted.size();

    // Admission budget: an arrival only enters the prefill pool when the
    // decode pool has (future) room for its whole context, so KV never
    // finishes prefill with nowhere to go.
    const std::int64_t budget = opts_.max_inflight_decode_tokens > 0
                                    ? opts_.max_inflight_decode_tokens
                                    : decode->cache().token_capacity();

    // When backpressure began stalling each arrival.
    std::vector<double> admit_ready(n, 0.0);

    hw::LinkChannel fabric(node_.link);
    sim::Cluster cluster;
    cluster.add(prefill.get());
    cluster.add(decode.get());

    std::int64_t committed = 0;
    std::vector<std::size_t> stalled;  // FIFO via head index
    std::size_t stalled_head = 0;

    auto context_tokens = [&](std::size_t i) {
        return sorted[i].prompt_tokens + sorted[i].output_tokens;
    };

    auto start_prefill = [&](std::size_t i, double t) {
        committed += context_tokens(i);
        engine::RequestSpec ps = sorted[i];
        ps.output_tokens = 1;  // prefill emits the first token
        prefill->advance_clock_to(t);
        prefill->submit(ps, static_cast<engine::RequestId>(i));
    };

    // FIFO drain of stalled arrivals whenever budget frees. Head-of-line
    // blocking is deliberate: admitting around a stalled request would
    // starve large contexts under steady small-request load.
    auto drain_admissions = [&](double t) {
        while (stalled_head < stalled.size()) {
            const std::size_t i = stalled[stalled_head];
            if (committed + context_tokens(i) > budget)
                break;
            ++stalled_head;
            stats_.stall_seconds += t - admit_ready[i];
            start_prefill(i, t);
        }
    };

    // Reserve the fabric for request `i`'s handoff no earlier than `t`;
    // the decode pool takes the request over when the transfer lands.
    auto start_transfer = [&](std::size_t i, double t) {
        const double bytes =
            static_cast<double>(sorted[i].prompt_tokens + 1) *
            model_.kv_bytes_per_token();
        const double lands = fabric.reserve(t, bytes);
        cluster.post(lands, [&, i, lands] {
            engine::RequestSpec ds = sorted[i];
            ds.arrival = lands;
            decode->advance_clock_to(lands);
            decode->submit_prefilled(ds, static_cast<engine::RequestId>(i));
            if (opts_.trace) {
                opts_.trace->on_instant(prefill->trace_id(), lands,
                                        "kv_handoff #" + std::to_string(i));
            }
        });
    };

    prefill->set_on_finish([&](const engine::Request& r) {
        const auto i = static_cast<std::size_t>(r.id);
        const double t = prefill->now();
        if (sorted[i].output_tokens <= 1) {
            // Single-token requests finish on the prefill pool.
            committed -= context_tokens(i);
            cluster.post(t, [&, t] { drain_admissions(t); });
            return true;
        }
        start_transfer(i, t);
        return true;
    });

    decode->set_on_finish([&](const engine::Request& r) {
        const auto i = static_cast<std::size_t>(r.id);
        const double t = decode->now();
        committed -= context_tokens(i);
        cluster.post(t, [&, t] { drain_admissions(t); });
        return true;
    });

    for (std::size_t i = 0; i < n; ++i) {
        if (context_tokens(i) > budget) {
            fatal("request " + std::to_string(i) + "'s context (" +
                  std::to_string(context_tokens(i)) +
                  " tokens) exceeds the decode-pool admission budget (" +
                  std::to_string(budget) + ")");
        }
        cluster.post(sorted[i].arrival, [&, i] {
            const double t = sorted[i].arrival;
            if (stalled_head < stalled.size() ||
                committed + context_tokens(i) > budget) {
                admit_ready[i] = t;
                stalled.push_back(i);
                ++stats_.stalled_admissions;
                return;
            }
            start_prefill(i, t);
        });
    }

    cluster.run();
    if (prefill->has_work() || decode->has_work())
        fatal("disaggregated replay deadlocked: a pool still holds "
              "unfinished requests its KV cache cannot admit");
    if (stalled_head < stalled.size())
        fatal("disaggregated replay deadlocked: request " +
              std::to_string(stalled[stalled_head]) +
              " never cleared the admission budget");

    std::vector<engine::RequestRecord> prefill_recs(n);
    std::vector<bool> has_prefill(n, false);
    for (const auto& rec : prefill->metrics().requests()) {
        prefill_recs[static_cast<std::size_t>(rec.id)] = rec;
        has_prefill[static_cast<std::size_t>(rec.id)] = true;
    }
    std::vector<engine::RequestRecord> decode_recs(n);
    std::vector<bool> has_decode(n, false);
    for (const auto& rec : decode->metrics().requests()) {
        decode_recs[static_cast<std::size_t>(rec.id)] = rec;
        has_decode[static_cast<std::size_t>(rec.id)] = true;
    }

    engine::Metrics combined(opts_.throughput_bin);
    for (std::size_t i = 0; i < n; ++i) {
        SP_ASSERT(has_prefill[i], "request ", i,
                  " finished without a prefill record");
        engine::RequestRecord rec;
        rec.id = static_cast<engine::RequestId>(i);
        rec.arrival = sorted[i].arrival;
        rec.prompt_tokens = sorted[i].prompt_tokens;
        rec.output_tokens = sorted[i].output_tokens;
        // Prefill arrivals keep the client timestamp, so its TTFT/wait
        // already include any admission stall.
        rec.ttft = prefill_recs[i].ttft;
        rec.wait = prefill_recs[i].wait;
        rec.preemptions = prefill_recs[i].preemptions;
        if (has_decode[i]) {
            const double finish =
                decode_recs[i].arrival + decode_recs[i].completion;
            rec.completion = finish - sorted[i].arrival;
            const double first_token =
                sorted[i].arrival + prefill_recs[i].ttft;
            rec.tpot = (finish - first_token) /
                       static_cast<double>(sorted[i].output_tokens - 1);
            rec.preemptions += decode_recs[i].preemptions;
        } else {
            rec.completion = prefill_recs[i].completion;
            rec.tpot = 0.0;
        }
        combined.add_record(rec);
    }
    // Fold both pools' step telemetry for throughput/step accounting.
    combined.merge_steps(prefill->metrics());
    combined.merge_steps(decode->metrics());
    return combined;
}

} // namespace shiftpar::core
