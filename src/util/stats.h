/**
 * @file
 * Statistical accumulators used for experiment reporting.
 *
 * Two tools cover the exact-sample figures in the paper:
 *  - `Summary`: exact sample store with mean/percentile queries (TTFT, TPOT,
 *    completion-time distributions — Fig. 11).
 *  - `TimeSeries`: time-binned accumulation for throughput/arrival timelines
 *    (Fig. 7, Fig. 9, Fig. 10).
 *
 * Bucketed distributions live in `util::Histogram` (util/histogram.h), the
 * log-bucketed quantile sketch — the single histogram implementation in the
 * tree. A fixed-width-bin `Histogram` used to live here too; it had no
 * production users and was folded away.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace shiftpar {

/**
 * Exact-sample summary statistics.
 *
 * Stores every sample; suited to the per-request metric volumes this
 * simulator produces (at most a few hundred thousand samples per run).
 * Percentiles use linear interpolation between order statistics
 * (the same convention as numpy's default).
 */
class Summary
{
  public:
    /** Add one sample. */
    void add(double value);

    /** @return number of samples added. */
    std::size_t count() const { return values_.size(); }

    /** @return sum of samples (0 when empty). */
    double sum() const { return sum_; }

    /** @return arithmetic mean (0 when empty). */
    double mean() const;

    /** @return smallest sample (0 when empty). */
    double min() const;

    /** @return largest sample (0 when empty). */
    double max() const;

    /** @return sample standard deviation (0 when fewer than 2 samples). */
    double stddev() const;

    /**
     * @param p Percentile in [0, 100].
     * @return the interpolated percentile (0 when empty).
     */
    double percentile(double p) const;

    /** @return the median (50th percentile). */
    double median() const { return percentile(50.0); }

    /** @return all samples in insertion order. */
    const std::vector<double>& values() const { return values_; }

    /** Remove all samples. */
    void clear();

  private:
    /** Sort the cached copy if new samples arrived since the last query. */
    void ensure_sorted() const;

    std::vector<double> values_;
    mutable std::vector<double> sorted_;
    mutable bool sorted_valid_ = true;
    double sum_ = 0.0;
};

/**
 * Accumulates values into fixed-duration time bins starting at t = 0.
 *
 * Used for throughput timelines: `add(t, tokens)` accumulates tokens into
 * the bin containing `t`; `rate(i)` divides by the bin width to yield
 * tokens/second.
 */
class TimeSeries
{
  public:
    /** @param bin_seconds Width of each time bin in seconds (> 0). */
    explicit TimeSeries(double bin_seconds);

    /** Accumulate `value` into the bin containing time `t` (t >= 0). */
    void add(double t, double value);

    /** Add `other` bin by bin; the bin widths must be equal. */
    void merge(const TimeSeries& other);

    /** @return number of bins touched so far (highest bin index + 1). */
    std::size_t num_bins() const { return bins_.size(); }

    /** @return accumulated value in bin `i` (0 for untouched bins). */
    double bin_value(std::size_t i) const;

    /** @return accumulated value / bin width — a rate — for bin `i`. */
    double rate(std::size_t i) const;

    /** @return the start time of bin `i`. */
    double bin_start(std::size_t i) const;

    /** @return the maximum per-bin rate across all bins (0 when empty). */
    double peak_rate() const;

    /** @return the bin width in seconds. */
    double bin_seconds() const { return bin_seconds_; }

  private:
    double bin_seconds_;
    std::vector<double> bins_;
};

/** Render "p50=.. p90=.. p99=.." for quick textual reports. */
std::string format_percentiles(const Summary& s);

} // namespace shiftpar
