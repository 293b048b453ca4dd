/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself.
 *
 * These track the library's own performance (how fast experiments run),
 * not the modeled system's. They guard the hot paths: the per-step
 * analytical perf model, head-layout construction, KV-cache block
 * operations, the scheduler loop, and end-to-end engine throughput in
 * simulated requests per wall-clock second.
 */

#include <benchmark/benchmark.h>

#include "core/deployment.h"
#include "engine/engine.h"
#include "hw/presets.h"
#include "kvcache/cache_manager.h"
#include "model/presets.h"
#include "parallel/layout.h"
#include "parallel/perf_model.h"
#include "sim/cluster.h"
#include "workload/synthetic.h"

using namespace shiftpar;

namespace {

void
BM_PerfModelPrefillStep(benchmark::State& state)
{
    const parallel::PerfModel perf(hw::h200_node(), model::llama_70b());
    const auto work = parallel::BatchWork::prefill(8192);
    for (auto _ : state) {
        benchmark::DoNotOptimize(perf.step_time(work, {8, 1}));
    }
}
BENCHMARK(BM_PerfModelPrefillStep);

void
BM_PerfModelMixedStep(benchmark::State& state)
{
    const parallel::PerfModel perf(hw::h200_node(), model::llama_70b());
    parallel::BatchWork work;
    for (int i = 0; i < state.range(0); ++i)
        work.chunks.push_back({1, 2048 + i, false});
    work.chunks.push_back({4096, 0, true});
    for (auto _ : state) {
        benchmark::DoNotOptimize(perf.step_time(work, {4, 2}));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PerfModelMixedStep)->Range(8, 1024)->Complexity();

void
BM_HeadLayoutBase(benchmark::State& state)
{
    const auto m = model::llama_70b();
    for (auto _ : state) {
        benchmark::DoNotOptimize(parallel::HeadLayout::base(m, {4, 2}));
    }
}
BENCHMARK(BM_HeadLayoutBase);

void
BM_CacheAppendRelease(benchmark::State& state)
{
    const auto m = model::llama_70b();
    kvcache::CacheManager cache(1 << 22,
                                kvcache::KvLayout::base(m, {1, 8}), 16);
    std::int64_t id = 0;
    for (auto _ : state) {
        cache.try_append(id, 2048);
        cache.release(id);
        ++id;
    }
}
BENCHMARK(BM_CacheAppendRelease);

void
BM_EngineDecodeSteps(benchmark::State& state)
{
    // Simulated decode steps executed per wall-clock second with a full
    // running batch.
    for (auto _ : state) {
        state.PauseTiming();
        engine::EngineConfig cfg;
        cfg.base = {1, 8};
        engine::Engine e(hw::h200_node(), model::llama_70b(), cfg,
                         std::make_unique<engine::FixedPolicy>(cfg.base));
        for (int i = 0; i < 64; ++i)
            e.submit({0.0, 256, 64}, i);
        sim::Cluster cluster;
        cluster.add(&e);
        state.ResumeTiming();
        cluster.run();
        benchmark::DoNotOptimize(e.metrics().total_tokens());
    }
}
BENCHMARK(BM_EngineDecodeSteps)->Unit(benchmark::kMillisecond);

void
BM_EndToEndSaturation(benchmark::State& state)
{
    // A full Fig.-12-style saturation run: requests simulated per second
    // of wall clock.
    const auto workload = workload::uniform_batch(
        static_cast<int>(state.range(0)), 4096, 250);
    for (auto _ : state) {
        core::Deployment d;
        d.model = model::llama_70b();
        d.strategy = parallel::Strategy::kShift;
        benchmark::DoNotOptimize(core::run_deployment(d, workload));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EndToEndSaturation)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
