/** @file Shared fixtures for engine/core tests: a tiny fast model + node. */

#pragma once

#include <vector>

#include "engine/engine.h"
#include "hw/presets.h"
#include "model/model_config.h"
#include "obs/trace.h"

namespace shiftpar::testing {

/** A small 8-head model so engine steps are cheap and numbers are tidy. */
inline model::ModelConfig
tiny_model()
{
    model::ModelConfig m;
    m.name = "tiny-1B";
    m.num_layers = 8;
    m.hidden_size = 1024;
    m.q_heads = 8;
    m.kv_heads = 8;
    m.head_dim = 128;
    m.intermediate_size = 4096;
    m.vocab_size = 32000;
    m.weight_dtype = model::DType::kFp8;
    m.validate();
    return m;
}

/** The standard 8-GPU test node. */
inline hw::Node
test_node()
{
    return hw::h200_node();
}

/** Default engine config over the whole node as TP=8. */
inline engine::EngineConfig
tp8_engine_config()
{
    engine::EngineConfig cfg;
    cfg.base = {1, 8};
    return cfg;
}

/** Build an engine with a fixed policy over its base config. */
inline std::unique_ptr<engine::Engine>
make_engine(const model::ModelConfig& m, engine::EngineConfig cfg)
{
    return std::make_unique<engine::Engine>(
        test_node(), m, cfg,
        std::make_unique<engine::FixedPolicy>(cfg.base));
}

/**
 * Trace sink that keeps every engine step, in publication order. `Metrics`
 * folds steps as they happen, so tests that inspect individual steps
 * attach one of these (EngineConfig::trace or Deployment::trace).
 */
struct StepLog : obs::TraceSink
{
    std::vector<obs::StepEvent> steps;

    void on_step(const obs::StepEvent& e) override { steps.push_back(e); }

    /** @return engine `id`'s steps, in the order it executed them. */
    std::vector<obs::StepEvent>
    of(obs::EngineId id) const
    {
        std::vector<obs::StepEvent> out;
        for (const auto& s : steps)
            if (s.engine == id)
                out.push_back(s);
        return out;
    }
};

} // namespace shiftpar::testing
