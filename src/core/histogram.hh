/**
 * @file
 * Log-bucketed latency histogram with quantile queries.
 *
 * The bucketing scheme follows HdrHistogram: values below
 * 2^subBucketBits sit in exact unit buckets; above that, each
 * power-of-two octave is split into 2^subBucketBits linear
 * sub-buckets, so a bucket spans at most 1/2^subBucketBits of its
 * lower edge. Every quantile answer is the upper edge of the bucket
 * holding the requested rank, so its relative error is bounded by
 * relativeErrorBound() across the full 64-bit range.
 *
 * This is the one histogram in uqsim. Two resolutions are in use:
 *  - kReportingBits (5, a 1/32 bound) for every printed percentile:
 *    per-tier and end-to-end latency, MetricsRegistry histograms,
 *    load sweeps and trace analysis. At 5 bits the bucket edges are
 *    the ones every pinned result (hostbench's p50/p99, EXPERIMENTS.md)
 *    was recorded with; moving reporting to 1/64 means changing this
 *    one constant and re-recording those pins.
 *  - obs::kSketchBits (6, a 1/64 bound) for the telemetry pipeline's
 *    per-interval histograms, whose p99 drives the SLO monitor and
 *    the autoscaler.
 *
 * The pipeline snapshots and resets its histograms once per interval,
 * so reset() and merge() cost O(buckets touched), and quantile scans
 * only cover the buckets between the exact min and max.
 */

#ifndef UQSIM_CORE_HISTOGRAM_HH
#define UQSIM_CORE_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace uqsim {

/**
 * Fixed-precision histogram of non-negative 64-bit values.
 */
class Histogram
{
  public:
    /** Resolution of every reported percentile (see file comment). */
    static constexpr unsigned kReportingBits = 5;

    /** @param sub_bucket_bits linear resolution within each octave. */
    explicit Histogram(unsigned sub_bucket_bits = kReportingBits);

    /** Record one sample, O(1). */
    void record(std::uint64_t value);

    /** Total number of recorded samples. */
    std::uint64_t count() const { return count_; }

    /** Smallest recorded value (0 if empty; exact). */
    std::uint64_t min() const { return count_ ? min_ : 0; }

    /** Largest recorded value (0 if empty; exact). */
    std::uint64_t max() const { return count_ ? max_ : 0; }

    /** Arithmetic mean of recorded samples (0 if empty). */
    double mean() const;

    /**
     * Value at quantile @p q in [0, 1]: the exact min/max at the ends,
     * otherwise the upper edge of the bucket holding the requested
     * rank, clamped to [min, max] (0 if empty).
     */
    std::uint64_t quantile(double q) const;

    /**
     * Answer @p n quantiles (any order, at most 16) in one pass over
     * the buckets; out[i] equals quantile(qs[i]).
     */
    void quantiles(const double *qs, std::size_t n,
                   std::uint64_t *out) const;

    /** Shorthand for common tail percentiles. */
    std::uint64_t p50() const { return quantile(0.50); }
    std::uint64_t p95() const { return quantile(0.95); }
    std::uint64_t p99() const { return quantile(0.99); }

    /** Merge another histogram (same resolution) into this one. */
    void merge(const Histogram &other);

    /** Forget all samples; O(buckets touched since the last reset). */
    void reset();

    /** The guaranteed relative error of quantile(): 1/2^bits. */
    double relativeErrorBound() const
    {
        return 1.0 / static_cast<double>(subBucketCount_);
    }

  private:
    std::size_t bucketIndex(std::uint64_t value) const;
    std::uint64_t bucketUpperBound(std::size_t index) const;

    unsigned subBucketBits_;
    std::uint64_t subBucketCount_;
    std::vector<std::uint64_t> buckets_;
    /** Indices of non-zero buckets, for cheap resets and merges. */
    std::vector<std::uint32_t> touched_;
    std::uint64_t count_ = 0;
    std::uint64_t min_ = ~0ull;
    std::uint64_t max_ = 0;
    double sum_ = 0.0;
};

} // namespace uqsim

#endif // UQSIM_CORE_HISTOGRAM_HH
