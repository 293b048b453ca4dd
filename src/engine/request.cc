#include "engine/request.h"

namespace shiftpar::engine {

void
Request::reset_for_recompute()
{
    // Recompute preemption (vLLM-style): the KV blocks were released, so the
    // prompt plus every output token produced so far must be re-prefilled
    // before decoding can continue. Tokens already delivered to the client
    // are kept — only cache state is rebuilt.
    state = RequestState::kWaiting;
    prefill_target = spec.prompt_tokens + decoded;
    prefilled = 0;
    ++preemptions;
    // Prefix-cache state is re-established at the next admission (the
    // entry itself survives in the cache and shortens the recompute).
    prefix_attached = false;
    prefix_filled = 0;
    filling_prefix = false;
}

} // namespace shiftpar::engine
