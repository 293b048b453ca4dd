/**
 * @file
 * GPU device model: capacity, bandwidth, and roofline timing.
 *
 * The simulator models a GPU with datasheet peaks derated by empirical
 * efficiency factors. Kernel time follows the roofline model: the maximum of
 * compute time (FLOPs / achievable FLOP rate) and memory time (bytes moved /
 * achievable bandwidth), plus a fixed per-kernel launch overhead. This level
 * of fidelity is what the paper's own complexity analysis (Table 2) relies
 * on, and is sufficient to reproduce the relative ordering of parallelism
 * strategies.
 */

#pragma once

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace shiftpar::hw {

/**
 * Datasheet specification plus derating knobs for one GPU.
 *
 * Efficiency factors represent the fraction of the datasheet peak that real
 * transformer kernels achieve (large-GEMM MFU, streaming HBM efficiency).
 * Defaults are calibrated in `presets.cc` against the paper's published
 * throughput numbers.
 */
struct GpuSpec
{
    std::string name;

    /** Peak dense FP8 tensor-core throughput, FLOP/s. */
    double peak_fp8_flops = 0.0;

    /** Peak dense FP16/BF16 tensor-core throughput, FLOP/s. */
    double peak_fp16_flops = 0.0;

    /** HBM capacity, bytes. */
    double hbm_bytes = 0.0;

    /** HBM peak bandwidth, bytes/s. */
    double hbm_bw = 0.0;

    /** Achievable fraction of peak FLOPs for large GEMMs (MFU ceiling). */
    double gemm_efficiency = 0.55;

    /** Achievable fraction of peak FLOPs for attention kernels. */
    double attn_efficiency = 0.40;

    /** Achievable fraction of peak HBM bandwidth for streaming reads. */
    double mem_efficiency = 0.75;

    /** Fixed per-kernel launch/dispatch overhead, seconds. */
    double kernel_overhead = 2.0e-6;

    /** @return achievable FLOP/s for dense GEMM at `dtype_bytes` weights. */
    double effective_gemm_flops(double dtype_bytes) const;

    /** @return achievable FLOP/s for attention kernels. */
    double effective_attn_flops(double dtype_bytes) const;

    /** @return achievable HBM bandwidth, bytes/s. */
    double effective_bw() const { return hbm_bw * mem_efficiency; }

    /**
     * Roofline time for one fused kernel region (inline: the step-cost
     * models call it several times per simulated step).
     *
     * @param flops Arithmetic work in FLOPs.
     * @param bytes HBM traffic in bytes (weights + activations + cache).
     * @param compute_rate Achievable FLOP/s (use one of the helpers above).
     * @return max(compute, memory) time + launch overhead, seconds.
     */
    double kernel_time(double flops, double bytes, double compute_rate) const
    {
        SP_ASSERT(compute_rate > 0.0 && effective_bw() > 0.0);
        SP_ASSERT(flops >= 0.0 && bytes >= 0.0);
        const double compute = flops / compute_rate;
        const double memory = bytes / effective_bw();
        return std::max(compute, memory) + kernel_overhead;
    }
};

} // namespace shiftpar::hw
