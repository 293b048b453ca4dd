#include "hw/interconnect.h"

#include <algorithm>

#include "util/logging.h"

namespace shiftpar::hw {

CollectiveModel::CollectiveModel(LinkSpec link)
    : link_(std::move(link))
{
    SP_ASSERT(link_.bw > 0.0 && link_.efficiency > 0.0);
}

double
CollectiveModel::all_reduce(double bytes, int nranks) const
{
    SP_ASSERT(bytes >= 0.0 && nranks >= 1);
    if (nranks == 1)
        return 0.0;
    return all_reduce_cost(nranks).seconds(bytes);
}

double
CollectiveModel::all_gather(double bytes, int nranks) const
{
    SP_ASSERT(bytes >= 0.0 && nranks >= 1);
    if (nranks == 1)
        return 0.0;
    return all_gather_cost(nranks).seconds(bytes);
}

double
CollectiveModel::reduce_scatter(double bytes, int nranks) const
{
    // Symmetric to all-gather in both volume and steps.
    return all_gather(bytes, nranks);
}

double
CollectiveModel::all_to_all(double bytes, int nranks) const
{
    SP_ASSERT(bytes >= 0.0 && nranks >= 1);
    if (nranks == 1)
        return 0.0;
    return all_to_all_cost(nranks).seconds(bytes);
}

// Each cost's factor is the wire volume of a one-byte payload.

CollectiveCost
CollectiveModel::all_reduce_cost(int nranks) const
{
    SP_ASSERT(nranks > 1);
    const double p = static_cast<double>(nranks);
    // Ring: 2(P-1) latency steps. Switch fabric: reduce-scatter + all-gather,
    // two phases of simultaneous exchange.
    const double steps =
        link_.kind == FabricKind::kRing ? 2.0 * (p - 1.0) : 2.0;
    return {all_reduce_volume(1.0, nranks), steps * link_.latency,
            link_.effective_bw()};
}

CollectiveCost
CollectiveModel::all_gather_cost(int nranks) const
{
    SP_ASSERT(nranks > 1);
    const double p = static_cast<double>(nranks);
    const double steps = link_.kind == FabricKind::kRing ? (p - 1.0) : 1.0;
    return {all_gather_volume(1.0, nranks), steps * link_.latency,
            link_.effective_bw()};
}

CollectiveCost
CollectiveModel::all_to_all_cost(int nranks) const
{
    SP_ASSERT(nranks > 1);
    const double p = static_cast<double>(nranks);
    // On a switch all pairwise exchanges proceed simultaneously (one phase);
    // a ring serializes P-1 neighbor rounds.
    const double steps = link_.kind == FabricKind::kRing ? (p - 1.0) : 1.0;
    return {all_to_all_volume(1.0, nranks), steps * link_.latency,
            link_.effective_bw()};
}

double
CollectiveModel::all_reduce_volume(double bytes, int nranks)
{
    if (nranks <= 1)
        return 0.0;
    const double p = static_cast<double>(nranks);
    return 2.0 * (p - 1.0) / p * bytes;
}

double
CollectiveModel::all_to_all_volume(double bytes, int nranks)
{
    if (nranks <= 1)
        return 0.0;
    const double p = static_cast<double>(nranks);
    return (p - 1.0) / p * bytes;
}

double
CollectiveModel::all_gather_volume(double bytes, int nranks)
{
    if (nranks <= 1)
        return 0.0;
    const double p = static_cast<double>(nranks);
    return (p - 1.0) / p * bytes;
}

LinkChannel::LinkChannel(LinkSpec link)
    : link_(std::move(link))
{
    SP_ASSERT(link_.bw > 0.0 && link_.efficiency > 0.0,
              "a link channel needs usable bandwidth");
}

double
LinkChannel::occupancy(double bytes) const
{
    SP_ASSERT(bytes >= 0.0);
    return bytes / link_.effective_bw() + link_.latency;
}

double
LinkChannel::reserve(double t, double bytes)
{
    busy_until_ = std::max(t, busy_until_) + occupancy(bytes);
    return busy_until_;
}

} // namespace shiftpar::hw
