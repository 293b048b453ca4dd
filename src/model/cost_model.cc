#include "model/cost_model.h"

#include "util/logging.h"

namespace shiftpar::model {

BatchWork
BatchWork::prefill(std::int64_t prompt_tokens)
{
    BatchWork w;
    w.add(prompt_tokens, 0, true);
    return w;
}

BatchWork
BatchWork::decode(std::int64_t batch, std::int64_t context)
{
    SP_ASSERT(batch >= 0 && context >= 0);
    // `batch` one-token chunks at `context`: each attends context + 1 keys
    // and streams 2·context + 1 doubled KV tokens.
    BatchWork w;
    w.decodes = {batch, batch, batch * (context + 1),
                 batch * (2 * context + 1)};
    return w;
}

StepTiming&
StepTiming::operator+=(const StepTiming& o)
{
    gemm += o.gemm;
    attention += o.attention;
    comm += o.comm;
    overhead += o.overhead;
    return *this;
}

const char*
cost_model_kind_name(CostModelKind kind)
{
    switch (kind) {
      case CostModelKind::kRoofline: return "roofline";
      case CostModelKind::kKernel:   return "kernel";
    }
    return "?";
}

CostModelKind
parse_cost_model_kind(const std::string& s)
{
    if (s == "roofline")
        return CostModelKind::kRoofline;
    if (s == "kernel")
        return CostModelKind::kKernel;
    fatal("unknown cost model '" + s + "' (expected roofline|kernel)");
}

double
CostModel::prefill_time(std::int64_t prompt_tokens,
                        const parallel::ParallelConfig& cfg) const
{
    return evaluate(BatchWork::prefill(prompt_tokens), cfg).total();
}

double
CostModel::decode_step_time(std::int64_t batch, std::int64_t context,
                            const parallel::ParallelConfig& cfg) const
{
    return evaluate(BatchWork::decode(batch, context), cfg).total();
}

} // namespace shiftpar::model
