/**
 * @file
 * Tests for the parallel bench sweep runner: the thread pool executes and
 * drains work, commits fire in index order regardless of completion order,
 * and a multi-worker sweep produces byte-identical results — including the
 * JSON run report — to the sequential reference path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_common.h"
#include "common/sweep.h"
#include "model/presets.h"
#include "util/thread_pool.h"
#include "workload/arrival.h"
#include "workload/synthetic.h"

namespace shiftpar {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);

    // The pool is reusable after an idle wait.
    pool.submit([&] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, DestructorDrainsPendingWork)
{
    std::atomic<int> count{0};
    {
        util::ThreadPool pool(2);
        for (int i = 0; i < 50; ++i) {
            pool.submit([&] {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                count.fetch_add(1);
            });
        }
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DefaultConcurrencyIsPositive)
{
    EXPECT_GE(util::ThreadPool::default_concurrency(), 1);
    util::ThreadPool pool(0);  // clamps to the default
    EXPECT_GE(pool.size(), 1);
}

TEST(SweepRunner, EffectiveJobsIsCappedByPointCount)
{
    bench::detail::set_jobs(8);
    EXPECT_EQ(bench::effective_jobs(2), 2);
    EXPECT_EQ(bench::effective_jobs(100), 8);
    EXPECT_EQ(bench::effective_jobs(0), 1);
    bench::detail::set_jobs(1);
    EXPECT_EQ(bench::effective_jobs(100), 1);
}

TEST(SweepRunnerDeath, JobsMustBeAWholePositiveInt)
{
    // Each value is rejected while parsing, before any worker starts.
    for (const char* value : {"4x", "", "0", "4294967297"}) {
        std::string prog = "bench", flag = "--jobs", arg = value;
        char* argv[] = {prog.data(), flag.data(), arg.data(), nullptr};
        EXPECT_DEATH(bench::init(3, argv),
                     "--jobs requires a positive worker count")
            << "value '" << value << "'";
    }
}

TEST(SweepRunner, CommitsFireInIndexOrder)
{
    bench::detail::set_jobs(4);
    constexpr std::size_t kPoints = 24;
    std::vector<std::size_t> order;
    bench::run_sweep(kPoints, [&](std::size_t i) {
        // Early points sleep longest, so without the reorder buffer the
        // late points would commit first.
        std::this_thread::sleep_for(
            std::chrono::microseconds(200 * (kPoints - i)));
        return bench::SweepCommit([&order, i] { order.push_back(i); });
    });
    ASSERT_EQ(order.size(), kPoints);
    for (std::size_t i = 0; i < kPoints; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SweepRunner, NullCommitsAreSkipped)
{
    bench::detail::set_jobs(4);
    std::vector<std::size_t> order;
    bench::run_sweep(10, [&](std::size_t i) {
        if (i % 2 == 1)
            return bench::SweepCommit();
        return bench::SweepCommit([&order, i] { order.push_back(i); });
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 4, 6, 8}));
}

/** One deployment point whose inputs depend only on the index. */
engine::Metrics
simulate_point(std::size_t i)
{
    Rng rng(9000 + 31 * static_cast<std::uint64_t>(i));
    core::Deployment d;
    d.model = model::qwen_32b();
    d.strategy = bench::comparison_strategies()[i %
        bench::comparison_strategies().size()];
    const auto reqs = workload::make_requests(
        workload::poisson_arrivals(rng, 3.0, 20.0), rng,
        workload::lognormal_size(2000.0, 0.6, 150.0, 0.4));
    return core::run_deployment(d, reqs);
}

/** Full-precision fingerprint of a run (any drift flips a byte). */
std::string
fingerprint(const engine::Metrics& met)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%.17g|%.17g|%.17g|%lld|%zu",
                  met.completion().sum(), met.ttft().percentile(99),
                  met.tpot().mean(),
                  static_cast<long long>(met.total_tokens()),
                  met.requests().size());
    return buf;
}

TEST(SweepRunner, ParallelSweepIsByteIdenticalToSequential)
{
    constexpr std::size_t kPoints = 6;
    const auto sweep_once = [&](int jobs) {
        bench::detail::set_jobs(jobs);
        std::vector<std::string> out;
        bench::run_sweep(kPoints, [&](std::size_t i) {
            const std::string fp = fingerprint(simulate_point(i));
            return bench::SweepCommit([&out, fp] { out.push_back(fp); });
        });
        return out;
    };
    const auto seq = sweep_once(1);
    const auto par = sweep_once(4);
    ASSERT_EQ(seq.size(), kPoints);
    EXPECT_EQ(seq, par);
}

TEST(SweepRunner, RunReportIsByteIdenticalAcrossJobCounts)
{
    constexpr std::size_t kPoints = 5;
    const auto sweep_once = [&](int jobs, obs::ReportJson* sink) {
        bench::detail::set_jobs(jobs);
        // Redirect this thread's shared report into `sink`: sequential
        // points record into it directly; parallel points record into
        // per-slot buffers that run_sweep merges into it in index order.
        bench::detail::set_thread_report(sink);
        bench::run_sweep(kPoints, [&](std::size_t i) {
            core::Deployment d;
            d.model = model::llama_70b();
            d.strategy = bench::comparison_strategies()[i %
                bench::comparison_strategies().size()];
            Rng rng(777 + 13 * static_cast<std::uint64_t>(i));
            const auto reqs = workload::make_requests(
                workload::poisson_arrivals(rng, 2.0, 15.0), rng,
                workload::lognormal_size(1500.0, 0.5, 120.0, 0.4));
            bench::run_deployment_named("point " + std::to_string(i), d,
                                        reqs);
            return bench::SweepCommit();
        });
        bench::detail::set_thread_report(nullptr);
    };
    obs::ReportJson seq, par;
    sweep_once(1, &seq);
    sweep_once(4, &par);
    ASSERT_EQ(seq.num_runs(), kPoints);
    std::ostringstream a, b;
    seq.write(a);
    par.write(b);
    EXPECT_EQ(a.str(), b.str());
}

} // namespace
} // namespace shiftpar
