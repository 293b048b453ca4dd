#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace shiftpar {

void
Summary::add(double value)
{
    values_.push_back(value);
    sum_ += value;
    sorted_valid_ = false;
}

double
Summary::mean() const
{
    return values_.empty() ? 0.0 : sum_ / static_cast<double>(values_.size());
}

double
Summary::min() const
{
    if (values_.empty())
        return 0.0;
    ensure_sorted();
    return sorted_.front();
}

double
Summary::max() const
{
    if (values_.empty())
        return 0.0;
    ensure_sorted();
    return sorted_.back();
}

double
Summary::stddev() const
{
    if (values_.size() < 2)
        return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double v : values_)
        acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double
Summary::percentile(double p) const
{
    SP_ASSERT(p >= 0.0 && p <= 100.0);
    if (values_.empty())
        return 0.0;
    ensure_sorted();
    if (sorted_.size() == 1)
        return sorted_.front();
    const double idx = p / 100.0 * static_cast<double>(sorted_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(idx));
    const auto hi = static_cast<std::size_t>(std::ceil(idx));
    const double frac = idx - static_cast<double>(lo);
    return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

void
Summary::clear()
{
    values_.clear();
    sorted_.clear();
    sorted_valid_ = true;
    sum_ = 0.0;
}

void
Summary::ensure_sorted() const
{
    if (!sorted_valid_) {
        sorted_ = values_;
        std::sort(sorted_.begin(), sorted_.end());
        sorted_valid_ = true;
    }
}

TimeSeries::TimeSeries(double bin_seconds)
    : bin_seconds_(bin_seconds)
{
    SP_ASSERT(bin_seconds > 0.0);
}

void
TimeSeries::add(double t, double value)
{
    SP_ASSERT(t >= 0.0);
    const auto idx = static_cast<std::size_t>(t / bin_seconds_);
    if (idx >= bins_.size())
        bins_.resize(idx + 1, 0.0);
    bins_[idx] += value;
}

void
TimeSeries::merge(const TimeSeries& other)
{
    SP_ASSERT(other.bin_seconds_ == bin_seconds_,
              "cannot merge time series with different bin widths");
    if (other.bins_.size() > bins_.size())
        bins_.resize(other.bins_.size(), 0.0);
    for (std::size_t i = 0; i < other.bins_.size(); ++i)
        bins_[i] += other.bins_[i];
}

double
TimeSeries::bin_value(std::size_t i) const
{
    return i < bins_.size() ? bins_[i] : 0.0;
}

double
TimeSeries::rate(std::size_t i) const
{
    return bin_value(i) / bin_seconds_;
}

double
TimeSeries::bin_start(std::size_t i) const
{
    return bin_seconds_ * static_cast<double>(i);
}

double
TimeSeries::peak_rate() const
{
    double peak = 0.0;
    for (std::size_t i = 0; i < bins_.size(); ++i)
        peak = std::max(peak, rate(i));
    return peak;
}

std::string
format_percentiles(const Summary& s)
{
    std::ostringstream os;
    os << "p50=" << s.percentile(50) << " p90=" << s.percentile(90)
       << " p99=" << s.percentile(99);
    return os.str();
}

} // namespace shiftpar
