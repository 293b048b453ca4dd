/**
 * @file
 * Process-wide self-observability metrics: named counters, gauges and
 * log-bucketed histograms with label support.
 *
 * The registry answers "what did this process do" the way `engine::Metrics`
 * answers "what did the simulated fleet do": any layer (Router fault paths,
 * the sim-core profiler, bench drivers) records into
 * `MetricsRegistry::current()` without new plumbing, and the bench harness
 * snapshots the aggregate into the JSON run report (`metrics` section) and,
 * with `--metrics-out`, a Prometheus-style text exposition.
 *
 * Determinism contract: all storage is `std::map`-backed so snapshots and
 * expositions enumerate in sorted (name, labels) order, and the sweep
 * runner gives every point a private registry (`set_thread_override`) that
 * it folds into the shared one in point-index order — the same float
 * operations in the same order at any `--jobs N`, so the emitted bytes
 * never depend on worker count.
 */

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"

namespace shiftpar::obs {

/** Version of the `metrics` report section and the exposition layout. */
constexpr int kMetricsSchemaVersion = 1;

/** Label set attached to one metric series ("key=value" dimensions). */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/**
 * Plain-data copy of a registry's contents, sorted by (name, labels).
 *
 * This is the hand-off format between the registry and the report writer:
 * `ReportJson` stores one of these instead of referencing live registry
 * state, so reports are immune to metrics recorded after the snapshot.
 */
struct MetricsSnapshot
{
    struct Counter
    {
        std::string name;
        MetricLabels labels;
        std::int64_t value = 0;
    };

    struct Gauge
    {
        std::string name;
        MetricLabels labels;
        double value = 0.0;
    };

    struct HistogramSummary
    {
        std::string name;
        MetricLabels labels;
        std::int64_t count = 0;
        double sum = 0.0;
        double mean = 0.0;
        double min = 0.0;
        double max = 0.0;
        double p50 = 0.0;
        double p90 = 0.0;
        double p99 = 0.0;
    };

    std::vector<Counter> counters;
    std::vector<Gauge> gauges;
    std::vector<HistogramSummary> histograms;

    bool
    empty() const
    {
        return counters.empty() && gauges.empty() && histograms.empty();
    }
};

/**
 * Thread-safe named-metric accumulator.
 *
 * Three instrument kinds with deterministic merge semantics:
 *  - counters: monotonically added integers; merge sums.
 *  - gauges: high-water levels; recording and merge both take the
 *    maximum, the only order-independent choice for parallel sweep points.
 *  - histograms: `util::Histogram` quantile sketches; merge folds buckets.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /** Add `delta` to the counter `name`/`labels` (creating it at 0). */
    void counter_add(const std::string& name, std::int64_t delta = 1,
                     const MetricLabels& labels = {});

    /** Raise the gauge `name`/`labels` to at least `value` (high-water). */
    void gauge_max(const std::string& name, double value,
                   const MetricLabels& labels = {});

    /** Record one sample into the histogram `name`/`labels`. */
    void observe(const std::string& name, double value,
                 const MetricLabels& labels = {});

    /**
     * Fold `other` into this registry: counters sum, gauges take the max,
     * histograms merge buckets. Call order defines float-summation order,
     * so callers aggregating parallel work must merge in a fixed order
     * (the sweep runner merges per-point buffers by point index).
     */
    void merge_from(const MetricsRegistry& other);

    /** @return true when nothing has been recorded. */
    bool empty() const;

    /** Drop every series (tests and repeated in-process benches). */
    void clear();

    /** @return a sorted plain-data copy of the current contents. */
    MetricsSnapshot snapshot() const;

    /**
     * Write the Prometheus-style text exposition (`# TYPE` headed series,
     * histograms as summaries with quantile labels). Deterministic: sorted
     * series order, locale-independent numbers.
     */
    void write_prometheus(std::ostream& os) const;

    /** The process-wide registry that `current()` falls back to. */
    static MetricsRegistry& global();

    /**
     * The registry this thread records into: the thread override when one
     * is installed (sweep worker buffering), else `global()`.
     */
    static MetricsRegistry& current();

    /**
     * Install `registry` as this thread's recording target (null restores
     * `global()`). @return the previously installed override.
     */
    static MetricsRegistry* set_thread_override(MetricsRegistry* registry);

  private:
    /** Map key: metric name + canonically sorted labels. */
    using Key = std::pair<std::string, MetricLabels>;

    /** Labels sorted by key so equal label sets compare equal. */
    static Key make_key(const std::string& name, const MetricLabels& labels);

    mutable std::mutex mutex_;
    std::map<Key, std::int64_t> counters_;      // shiftlint-guarded(mutex_)
    std::map<Key, double> gauges_;              // shiftlint-guarded(mutex_)
    std::map<Key, util::Histogram> histograms_; // shiftlint-guarded(mutex_)
};

/** Render the snapshot's Prometheus exposition (shared with tests). */
void write_prometheus(const MetricsSnapshot& snap, std::ostream& os);

} // namespace shiftpar::obs
