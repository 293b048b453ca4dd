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

    /** Occupancy window of one reservation on the link. */
    struct Window
    {
        double start = 0.0;
        double end = 0.0;
    };

    /**
     * Reserve the link for a `bytes`-sized transfer requested at time `t`.
     * The transfer starts at `max(t, busy_until())` and occupies the link
     * for `occupancy(bytes)` seconds; the link is busy until its end.
     */
    Window reserve(double t, double bytes);

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
