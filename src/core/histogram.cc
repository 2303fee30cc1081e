#include "core/histogram.hh"

#include <algorithm>

#include "core/logging.hh"

namespace uqsim {

Histogram::Histogram(unsigned sub_bucket_bits)
    : subBucketBits_(sub_bucket_bits),
      subBucketCount_(1ull << sub_bucket_bits)
{
    if (sub_bucket_bits < 1 || sub_bucket_bits > 16)
        fatal("Histogram sub_bucket_bits out of range [1,16]");
    // One row of unit buckets below subBucketCount, then one row of
    // subBucketCount sub-buckets per octave up to 2^64.
    buckets_.assign((65 - sub_bucket_bits) * subBucketCount_, 0);
}

std::size_t
Histogram::bucketIndex(std::uint64_t value) const
{
    if (value < subBucketCount_)
        return static_cast<std::size_t>(value);
    // Octave of values whose shifted top subBucketBits+1 bits land in
    // [2^bits, 2^(bits+1)): every sub-bucket's width is 1/2^bits of
    // its own lower bound, which is what makes relativeErrorBound()
    // a guarantee rather than a best case.
    const unsigned msb =
        63u - static_cast<unsigned>(__builtin_clzll(value));
    const unsigned octave = msb - subBucketBits_;
    const std::uint64_t sub =
        (value >> octave) - subBucketCount_; // in [0, 2^bits)
    return (static_cast<std::size_t>(octave) + 1) * subBucketCount_ +
           static_cast<std::size_t>(sub);
}

std::uint64_t
Histogram::bucketUpperBound(std::size_t index) const
{
    if (index < subBucketCount_)
        return static_cast<std::uint64_t>(index);
    const std::size_t octave = index / subBucketCount_ - 1;
    const std::uint64_t sub = index % subBucketCount_;
    return ((sub + subBucketCount_ + 1) << octave) - 1;
}

void
Histogram::record(std::uint64_t value)
{
    const std::size_t idx = bucketIndex(value);
    if (buckets_[idx]++ == 0)
        touched_.push_back(static_cast<std::uint32_t>(idx));
    ++count_;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    sum_ += static_cast<double>(value);
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

std::uint64_t
Histogram::quantile(double q) const
{
    std::uint64_t v;
    quantiles(&q, 1, &v);
    return v;
}

void
Histogram::quantiles(const double *qs, std::size_t n,
                     std::uint64_t *out) const
{
    if (count_ == 0) {
        std::fill(out, out + n, 0);
        return;
    }
    // Ranks (1-based), with the q<=0 / q>=1 exact answers filled up
    // front: a bucket edge can overshoot the tracked min.
    std::uint64_t ranks[16];
    if (n > sizeof(ranks) / sizeof(ranks[0]))
        panic("Histogram::quantiles with too many quantiles");
    std::size_t open = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ranks[i] = 0;
        if (qs[i] <= 0.0) {
            out[i] = min_;
        } else if (qs[i] >= 1.0) {
            out[i] = max_;
        } else {
            ranks[i] = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       qs[i] * static_cast<double>(count_) + 0.5));
            out[i] = max_;
            ++open;
        }
    }
    // Every sample lies between the buckets of the exact min and max.
    std::uint64_t seen = 0;
    const std::size_t hi = bucketIndex(max_);
    for (std::size_t i = bucketIndex(min_); i <= hi && open > 0; ++i) {
        if (buckets_[i] == 0)
            continue;
        seen += buckets_[i];
        for (std::size_t k = 0; k < n; ++k) {
            if (ranks[k] != 0 && seen >= ranks[k]) {
                out[k] = std::clamp(bucketUpperBound(i), min_, max_);
                ranks[k] = 0;
                --open;
            }
        }
    }
}

void
Histogram::merge(const Histogram &other)
{
    if (other.subBucketBits_ != subBucketBits_)
        panic("Histogram::merge with different resolution");
    for (std::uint32_t idx : other.touched_) {
        if (buckets_[idx] == 0)
            touched_.push_back(idx);
        buckets_[idx] += other.buckets_[idx];
    }
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    for (std::uint32_t idx : touched_)
        buckets_[idx] = 0;
    touched_.clear();
    count_ = 0;
    min_ = ~0ull;
    max_ = 0;
    sum_ = 0.0;
}

} // namespace uqsim
