/**
 * @file
 * GPU interconnect and collective-communication cost models.
 *
 * Collectives are modeled with alpha-beta costs: a latency term per
 * communication step plus a bandwidth term proportional to the bytes each
 * rank must move. Two algorithm families are supported:
 *
 *  - `kRing`: classic ring algorithms (all-reduce: 2(P-1) steps; gather /
 *    scatter: P-1 steps) — models PCIe/older NVLink fabrics.
 *  - `kSwitch`: NVSwitch-style full-bisection fabric where all ranks
 *    exchange simultaneously; all-to-all completes in one phase, all-reduce
 *    in two (reduce-scatter + all-gather).
 *
 * Per Table 2 of the paper, the distinguishing property is the *per-rank
 * communication volume*: all-reduce moves O(n·d) per rank regardless of
 * degree, while SP's all-to-all moves O(n·d / SP) — the models below encode
 * those volumes exactly.
 */

#pragma once

#include <string>

#include "util/logging.h"

namespace shiftpar::hw {

/** Collective algorithm family (fabric type). */
enum class FabricKind { kRing, kSwitch };

/** Physical link/fabric specification plus derating. */
struct LinkSpec
{
    std::string name;

    /** Per-GPU injection bandwidth into the fabric, bytes/s. */
    double bw = 0.0;

    /** Per-step software+hardware latency (NCCL launch, hop), seconds. */
    double latency = 0.0;

    /** Fraction of rated bandwidth collectives achieve (algorithmic BW). */
    double efficiency = 0.80;

    FabricKind kind = FabricKind::kSwitch;

    /** @return achievable bytes/s. */
    double effective_bw() const { return bw * efficiency; }
};

/**
 * The alpha-beta terms of one collective over one group of more than one
 * rank, fixed by the fabric and the group size; only the payload varies.
 */
struct CollectiveCost
{
    double factor = 0.0;   ///< per-rank wire bytes per payload byte
    double latency = 0.0;  ///< latency steps × per-step latency, seconds
    double bw = 0.0;       ///< achievable link bytes/s

    /** @return seconds to move a `bytes` payload. */
    double seconds(double bytes) const
    {
        SP_ASSERT(bytes >= 0.0);
        return factor * bytes / bw + latency;
    }
};

/**
 * Alpha-beta timing for NCCL-style collectives over a rank group.
 *
 * Byte-size conventions (matching NCCL's count semantics):
 *  - all_reduce:     `bytes` = size of the (replicated) tensor on each rank.
 *  - all_gather:     `bytes` = size of the *gathered result* on each rank.
 *  - reduce_scatter: `bytes` = size of the *input* tensor on each rank.
 *  - all_to_all:     `bytes` = size of each rank's local send buffer
 *                     (1/P of it stays local).
 */
class CollectiveModel
{
  public:
    explicit CollectiveModel(LinkSpec link);

    /** @return the link specification in use. */
    const LinkSpec& link() const { return link_; }

    /** Time for an all-reduce of `bytes` across `nranks`, seconds. */
    double all_reduce(double bytes, int nranks) const;

    /** Time for an all-gather producing `bytes` on each rank, seconds. */
    double all_gather(double bytes, int nranks) const;

    /** Time for a reduce-scatter of `bytes` input per rank, seconds. */
    double reduce_scatter(double bytes, int nranks) const;

    /** Time for an all-to-all with `bytes` local buffer per rank, seconds. */
    double all_to_all(double bytes, int nranks) const;

    /** Terms of an all-reduce across `nranks` > 1. */
    CollectiveCost all_reduce_cost(int nranks) const;

    /** Terms of an all-gather (and a reduce-scatter) across `nranks` > 1. */
    CollectiveCost all_gather_cost(int nranks) const;

    /** Terms of an all-to-all across `nranks` > 1. */
    CollectiveCost all_to_all_cost(int nranks) const;

    /**
     * Per-rank wire volume of an all-reduce (Table 2 accounting), bytes.
     * Ring all-reduce sends 2(P-1)/P of the tensor per rank.
     */
    static double all_reduce_volume(double bytes, int nranks);

    /** Per-rank wire volume of an all-to-all, bytes ((P-1)/P of buffer). */
    static double all_to_all_volume(double bytes, int nranks);

    /** Per-rank wire volume of an all-gather, bytes. */
    static double all_gather_volume(double bytes, int nranks);

  private:
    LinkSpec link_;
};

/**
 * FIFO occupancy model of one point-to-point link (e.g. the fabric
 * between a prefill and a decode pool). Point-to-point transfers
 * serialize: a transfer requested while the link is busy starts when the
 * link frees. The link's whole state is the time it next frees up.
 */
class LinkChannel
{
  public:
    /** Fatal when the link has no usable bandwidth. */
    explicit LinkChannel(LinkSpec link);

    /**
     * Reserve the link for a `bytes`-sized transfer requested at time `t`.
     * The transfer starts at `max(t, busy_until())` and occupies the link
     * for `occupancy(bytes)` seconds; the link is busy until its end.
     *
     * @return the time the transfer ends.
     */
    double reserve(double t, double bytes);

    /** @return the time the link next frees up (0 when never used). */
    double busy_until() const { return busy_until_; }

    /** @return seconds a `bytes`-sized transfer occupies the link. */
    double occupancy(double bytes) const;

    /** @return the link specification in use. */
    const LinkSpec& link() const { return link_; }

  private:
    LinkSpec link_;
    double busy_until_ = 0.0;
};

} // namespace shiftpar::hw
