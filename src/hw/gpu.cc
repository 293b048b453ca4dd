#include "hw/gpu.h"

namespace shiftpar::hw {

double
GpuSpec::effective_gemm_flops(double dtype_bytes) const
{
    // FP8 (1 byte) runs at the FP8 peak; anything wider at the FP16 peak.
    const double peak = dtype_bytes <= 1.0 ? peak_fp8_flops : peak_fp16_flops;
    return peak * gemm_efficiency;
}

double
GpuSpec::effective_attn_flops(double dtype_bytes) const
{
    const double peak = dtype_bytes <= 1.0 ? peak_fp8_flops : peak_fp16_flops;
    return peak * attn_efficiency;
}

} // namespace shiftpar::hw
