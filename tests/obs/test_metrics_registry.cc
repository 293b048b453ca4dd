/**
 * @file
 * Tests for the self-observability metrics registry: instrument semantics,
 * canonical label ordering, deterministic snapshots/expositions, merge
 * behavior, and the thread-override used by the sweep runner.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <thread>

#include "obs/metrics_registry.h"
#include "obs/report_json.h"

namespace shiftpar {
namespace {

using obs::MetricLabels;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

TEST(MetricsRegistry, StartsEmptyAndClears)
{
    MetricsRegistry reg;
    EXPECT_TRUE(reg.empty());
    EXPECT_TRUE(reg.snapshot().empty());
    reg.counter_add("a");
    reg.gauge_max("b", 1.0);
    reg.observe("c", 2.0);
    EXPECT_FALSE(reg.empty());
    reg.clear();
    EXPECT_TRUE(reg.empty());
}

TEST(MetricsRegistry, CountersAccumulate)
{
    MetricsRegistry reg;
    reg.counter_add("requests_total");
    reg.counter_add("requests_total", 4);
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].name, "requests_total");
    EXPECT_EQ(snap.counters[0].value, 5);
}

TEST(MetricsRegistry, GaugeSetOverwritesAndMaxRaises)
{
    MetricsRegistry reg;
    reg.gauge_max("peak", 5.0);
    reg.gauge_max("peak", 2.0);  // lower: must not regress
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].name, "peak");
    EXPECT_DOUBLE_EQ(snap.gauges[0].value, 5.0);
}

TEST(MetricsRegistry, HistogramsSummarize)
{
    MetricsRegistry reg;
    for (int i = 1; i <= 100; ++i)
        reg.observe("latency", static_cast<double>(i));
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const auto& h = snap.histograms[0];
    EXPECT_EQ(h.count, 100);
    EXPECT_DOUBLE_EQ(h.sum, 5050.0);
    EXPECT_DOUBLE_EQ(h.mean, 50.5);
    EXPECT_DOUBLE_EQ(h.min, 1.0);
    EXPECT_DOUBLE_EQ(h.max, 100.0);
    // Log-bucketed sketch: quantiles are approximate but ordered.
    EXPECT_LE(h.p50, h.p90);
    EXPECT_LE(h.p90, h.p99);
    EXPECT_GT(h.p50, 0.0);
}

TEST(MetricsRegistry, LabelOrderIsCanonicalized)
{
    MetricsRegistry reg;
    reg.counter_add("faults", 1, {{"kind", "fail"}, {"site", "router"}});
    reg.counter_add("faults", 2, {{"site", "router"}, {"kind", "fail"}});
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);  // same series either way
    EXPECT_EQ(snap.counters[0].value, 3);
    const MetricLabels expect = {{"kind", "fail"}, {"site", "router"}};
    EXPECT_EQ(snap.counters[0].labels, expect);
}

TEST(MetricsRegistry, SnapshotIsSortedByNameThenLabels)
{
    MetricsRegistry reg;
    reg.counter_add("zz");
    reg.counter_add("aa", 1, {{"k", "2"}});
    reg.counter_add("aa", 1, {{"k", "1"}});
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 3u);
    EXPECT_EQ(snap.counters[0].name, "aa");
    EXPECT_EQ(snap.counters[0].labels[0].second, "1");
    EXPECT_EQ(snap.counters[1].name, "aa");
    EXPECT_EQ(snap.counters[1].labels[0].second, "2");
    EXPECT_EQ(snap.counters[2].name, "zz");
}

TEST(MetricsRegistry, MergeSumsCountersMaxesGaugesFoldsHistograms)
{
    MetricsRegistry a, b;
    a.counter_add("c", 2);
    b.counter_add("c", 3);
    b.counter_add("only_b", 7);
    a.gauge_max("g", 4.0);
    b.gauge_max("g", 9.0);
    a.observe("h", 1.0);
    b.observe("h", 3.0);

    a.merge_from(b);
    const MetricsSnapshot snap = a.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].value, 5);   // c
    EXPECT_EQ(snap.counters[1].value, 7);   // only_b
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(snap.gauges[0].value, 9.0);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, 2);
    EXPECT_DOUBLE_EQ(snap.histograms[0].sum, 4.0);
}

TEST(MetricsRegistry, MergeOrderInvariantForIntegerAndGaugeSeries)
{
    // For counters and gauges the merge result is order-independent;
    // float histogram sums are why the sweep runner fixes the order.
    MetricsRegistry parts[3];
    for (int i = 0; i < 3; ++i) {
        parts[i].counter_add("c", i + 1);
        parts[i].gauge_max("g", static_cast<double>(10 - i));
    }
    MetricsRegistry fwd, rev;
    for (int i = 0; i < 3; ++i)
        fwd.merge_from(parts[i]);
    for (int i = 2; i >= 0; --i)
        rev.merge_from(parts[i]);
    std::ostringstream a, b;
    fwd.write_prometheus(a);
    rev.write_prometheus(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(MetricsRegistry, PrometheusExpositionShape)
{
    MetricsRegistry reg;
    reg.counter_add("shiftpar_fault_requests_total", 3,
                    {{"outcome", "shed"}});
    reg.gauge_max("shiftpar_queue_depth", 4.0);
    reg.observe("shiftpar_run_seconds", 0.5);
    reg.observe("shiftpar_run_seconds", 1.5);
    std::ostringstream os;
    reg.write_prometheus(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("# TYPE shiftpar_fault_requests_total counter"),
              std::string::npos);
    EXPECT_NE(
        text.find("shiftpar_fault_requests_total{outcome=\"shed\"} 3"),
        std::string::npos);
    EXPECT_NE(text.find("# TYPE shiftpar_queue_depth gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE shiftpar_run_seconds summary"),
              std::string::npos);
    EXPECT_NE(text.find("shiftpar_run_seconds{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("shiftpar_run_seconds_sum 2"), std::string::npos);
    EXPECT_NE(text.find("shiftpar_run_seconds_count 2"),
              std::string::npos);
}

TEST(MetricsRegistry, ThreadOverrideRedirectsCurrent)
{
    MetricsRegistry buffer;
    MetricsRegistry* prev = MetricsRegistry::set_thread_override(&buffer);
    MetricsRegistry::current().counter_add("buffered");
    MetricsRegistry::set_thread_override(prev);
    EXPECT_FALSE(buffer.empty());
    ASSERT_EQ(buffer.snapshot().counters.size(), 1u);
    EXPECT_EQ(buffer.snapshot().counters[0].name, "buffered");

    // The override is per-thread: another thread still sees global().
    MetricsRegistry* prev2 = MetricsRegistry::set_thread_override(&buffer);
    std::thread other([] {
        EXPECT_EQ(&MetricsRegistry::current(), &MetricsRegistry::global());
    });
    other.join();
    MetricsRegistry::set_thread_override(prev2);
}

TEST(MetricsRegistry, ReportJsonCarriesMetricsSection)
{
    MetricsRegistry reg;
    reg.counter_add("shiftpar_demo_total", 2, {{"kind", "x"}});
    reg.observe("shiftpar_demo_seconds", 0.25);

    obs::ReportJson report;
    engine::Metrics m;
    report.add_run("run", m);
    report.set_metrics(reg.snapshot());
    std::ostringstream os;
    report.write(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"metrics\""), std::string::npos);
    EXPECT_NE(text.find("\"shiftpar_demo_total\""), std::string::npos);
    EXPECT_NE(text.find("\"kind\": \"x\""), std::string::npos);
    EXPECT_NE(text.find("\"shiftpar_demo_seconds\""), std::string::npos);
}

TEST(MetricsRegistry, EmptySnapshotLeavesReportUnchanged)
{
    obs::ReportJson with, without;
    engine::Metrics m;
    with.add_run("run", m);
    without.add_run("run", m);
    with.set_metrics(MetricsSnapshot{});  // empty: must be dropped
    std::ostringstream a, b;
    with.write(a);
    without.write(b);
    EXPECT_EQ(a.str(), b.str());
}

// ---------------------------------------------------------------------------
// Destruction-order safety of the global registry
// ---------------------------------------------------------------------------

/** Exercised during process teardown, after main() has returned. */
void
touch_registry_at_exit()
{
    // bench_common registers an atexit flush that reads the registry; any
    // later-registered handler (or static destructor in another TU) may
    // run after a function-local `static MetricsRegistry` would have been
    // destroyed. The leaky heap singleton makes this always valid.
    MetricsRegistry::global().counter_add("teardown_touch");
    if (MetricsRegistry::global().snapshot().counters.empty())
        std::abort();  // lost the write: the registry died before us
}

TEST(MetricsRegistryTeardownDeathTest, AtexitHandlerMayUseGlobalRegistry)
{
    // The hazardous ordering: the handler registers BEFORE the first
    // global() call, so with a function-local static the registry would be
    // constructed after (and thus destroyed before) the handler runs —
    // a use-after-destruction that crashes or trips ASan at exit(0).
    // "threadsafe" re-executes the test binary for the child, so the
    // child's registration order is exactly as written here.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            std::atexit(touch_registry_at_exit);
            MetricsRegistry::global().counter_add("main_touch");
            std::exit(0);
        },
        testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace shiftpar
