/**
 * @file
 * Streaming log-bucketed histogram with bounded relative quantile error.
 *
 * HDR/DDSketch-style accumulator: samples land in geometrically spaced
 * buckets whose width is a fixed relative fraction of their value, so any
 * quantile query is answered within `relative_error` of the exact order
 * statistic while memory stays O(log(max/min)) regardless of sample count.
 * `engine::Metrics` builds its TTFT / TPOT / completion / wait
 * distributions with it from the stored request records when a report asks
 * for them; the metrics registry keeps live ones for its histogram series.
 *
 * Moments (count/sum/mean/min/max/stddev) are tracked exactly; only
 * interior percentiles are approximate. The default 0.5% relative error is
 * well inside the <= 1% the run reports promise.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

namespace shiftpar::util {

/** Log-bucketed quantile sketch over non-negative samples. */
class Histogram
{
  public:
    /**
     * @param relative_error Maximum relative quantile error, in (0, 0.5).
     *        Bucket boundaries grow by gamma = (1+e)/(1-e) per bucket and
     *        queries return the geometric midpoint, so any returned
     *        quantile q satisfies |q - exact| <= relative_error * exact.
     */
    explicit Histogram(double relative_error = 0.005);

    /** Add one sample. Negative samples clamp to 0 (latencies only). */
    void add(double value);

    /** Fold another histogram into this one (must share the error bound). */
    void merge(const Histogram& other);

    /** @return number of samples added. */
    std::size_t count() const { return count_; }

    /** @return exact sum of samples (0 when empty). */
    double sum() const { return sum_; }

    /** @return exact arithmetic mean (0 when empty). */
    double mean() const;

    /** @return exact smallest sample (0 when empty). */
    double min() const;

    /** @return exact largest sample (0 when empty). */
    double max() const;

    /** @return exact sample standard deviation (0 below 2 samples). */
    double stddev() const;

    /**
     * @param p Percentile in [0, 100].
     * @return a value within `relative_error` of the exact percentile
     *         (0 when empty). p=0 and p=100 return the exact min/max.
     */
    double percentile(double p) const;

    /** @return the median (50th percentile). */
    double median() const { return percentile(50.0); }

    /** @return the configured relative error bound. */
    double relative_error() const { return relative_error_; }

    /** @return number of occupied buckets (zero bucket included). */
    std::size_t num_buckets() const
    {
        return buckets_.size() + (zero_count_ > 0 ? 1u : 0u);
    }

    /** Remove all samples. */
    void clear();

  private:
    /** Bucket index for a strictly positive value. */
    int bucket_index(double value) const;

    /** Geometric midpoint of bucket `index` (its representative value). */
    double bucket_value(int index) const;

    double relative_error_;
    double gamma_;      ///< bucket growth factor (1+e)/(1-e)
    double log_gamma_;  ///< cached ln(gamma)

    /** Values below this are counted as zero (1 ns at latency scale). */
    static constexpr double kMinTrackable = 1e-9;

    std::map<int, std::uint64_t> buckets_;
    std::uint64_t zero_count_ = 0;
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace shiftpar::util
