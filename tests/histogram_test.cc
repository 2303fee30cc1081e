/**
 * @file
 * Tests for the log-bucketed histogram at the reporting resolution,
 * including a property test comparing percentile queries against
 * exact sorted-sample answers. tests/obs_sketch_test.cc covers the
 * same type at the telemetry pipeline's resolution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/histogram.hh"
#include "core/rng.hh"

namespace uqsim {
namespace {

TEST(HistogramTest, EmptyReturnsZeros)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.99), 0u);
    EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(HistogramTest, SingleValue)
{
    Histogram h;
    h.record(1000);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 1000u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.mean(), 1000.0);
    // With one sample every quantile is that sample, exactly: the
    // bucket upper bound is clamped to the tracked min/max.
    for (double q : {0.0, 0.001, 0.5, 0.999, 1.0})
        EXPECT_EQ(h.quantile(q), 1000u) << "q=" << q;
}

TEST(HistogramTest, ExtremePercentilesAreExact)
{
    // p0 and p100 must return the exact tracked min/max, not the
    // (possibly overshooting) upper bound of their buckets.
    Histogram h;
    h.record(1000003);
    h.record(999);
    h.record(5000);
    EXPECT_EQ(h.quantile(0.0), 999u);
    EXPECT_EQ(h.quantile(-0.05), 999u);  // clamped into [0, 1]
    EXPECT_EQ(h.quantile(1.0), 1000003u);
    EXPECT_EQ(h.quantile(2.5), 1000003u);
    // Interior quantiles stay within [min, max].
    for (double p = 1.0; p < 100.0; p += 7.0) {
        EXPECT_GE(h.quantile(p / 100.0), h.min());
        EXPECT_LE(h.quantile(p / 100.0), h.max());
    }
}

TEST(HistogramTest, HugeValuesSaturateSafely)
{
    Histogram h;
    h.record(~0ull);        // kMaxTick-style sentinel
    h.record(~0ull - 1);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), ~0ull);
    EXPECT_EQ(h.quantile(1.0), ~0ull);
    EXPECT_LE(h.quantile(0.5), ~0ull);
}

TEST(HistogramTest, SmallValuesAreExact)
{
    // Values below the sub-bucket count live in exact unit buckets.
    Histogram h;
    for (std::uint64_t v = 0; v < 64; ++v)
        h.record(v);
    EXPECT_EQ(h.quantile(1.0), 63u);
    EXPECT_EQ(h.min(), 0u);
}

TEST(HistogramTest, CountAndMean)
{
    Histogram h;
    for (int i = 0; i < 5; ++i) {
        h.record(100);
        h.record(200);
    }
    EXPECT_EQ(h.count(), 10u);
    EXPECT_NEAR(h.mean(), 150.0, 1e-9);
}

TEST(HistogramTest, PercentileMonotone)
{
    Histogram h;
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        h.record(static_cast<std::uint64_t>(rng.exponential(50000.0)));
    std::uint64_t prev = 0;
    for (double p = 1.0; p <= 100.0; p += 1.0) {
        const std::uint64_t v = h.quantile(p / 100.0);
        ASSERT_GE(v, prev);
        prev = v;
    }
}

TEST(HistogramTest, MergeCombinesCounts)
{
    Histogram a, b;
    a.record(100);
    b.record(10000);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 100u);
    EXPECT_GE(a.max(), 10000u);
}

TEST(HistogramTest, ResetClears)
{
    Histogram h;
    h.record(42);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(HistogramTest, MaxNeverExceededByPercentile)
{
    Histogram h;
    h.record(1000003);
    h.record(17);
    EXPECT_LE(h.quantile(1.0), h.max());
}

/**
 * Every printed p50/p99 (the pinned hostbench results, EXPERIMENTS.md)
 * is a bucket edge of this histogram, so the edges themselves are
 * pinned: fixed-seed streams and their percentiles, recorded as
 * literals. A change to the bucket math fails here before it moves a
 * printed number.
 */
TEST(HistogramTest, PinnedPercentiles)
{
    const auto fill = [](Histogram &h, int kind) {
        Rng rng(11 + kind);
        for (int i = 0; i < 20000; ++i) {
            std::uint64_t v = 0;
            switch (kind) {
              case 0:
                v = static_cast<std::uint64_t>(rng.exponential(1e6));
                break;
              case 1:
                v = static_cast<std::uint64_t>(rng.lognormal(12.0, 1.5));
                break;
              case 2: // every octave of the 64-bit range
                v = rng.next() >> rng.uniformInt(64);
                break;
            }
            h.record(v);
        }
    };
    const auto pct = [](const Histogram &h, double p) {
        return h.quantile(p / 100.0);
    };
    const double ps[] = {1.0, 50.0, 90.0, 99.0, 99.9};
    const auto expectPinned = [&](const Histogram &h,
                                  const std::uint64_t (&want)[5],
                                  const char *label) {
        for (std::size_t i = 0; i < 5; ++i)
            EXPECT_EQ(pct(h, ps[i]), want[i]) << label << " p=" << ps[i];
    };

    Histogram exp, logn, wide;
    fill(exp, 0);
    fill(logn, 1);
    fill(wide, 2);
    expectPinned(exp, {10239u, 704511u, 2359295u, 4849663u, 7208959u},
                 "exponential");
    expectPinned(logn, {4991u, 163839u, 1146879u, 5767167u, 17825791u},
                 "lognormal");
    expectPinned(wide,
                 {0u, 2952790015u, 128352589380059135u,
                  8358680908399640575u, 17582052945254416383u},
                 "64-bit-wide");
    EXPECT_EQ(wide.max(), 18384920978427031836u);

    exp.merge(logn);
    EXPECT_EQ(exp.count(), 40000u);
    EXPECT_EQ(exp.min(), 16u);
    EXPECT_EQ(exp.max(), 92956053u);
    expectPinned(exp, {6015u, 360447u, 1900543u, 5111807u, 12320767u},
                 "merged");
}

/**
 * Property: the histogram percentile must match the exact empirical
 * percentile within the bucketing's relative error bound (1/32, about
 * 3.1%, at the reporting resolution), across very different
 * distributions.
 */
class HistogramAccuracyTest : public ::testing::TestWithParam<int>
{};

TEST_P(HistogramAccuracyTest, MatchesSortedSamples)
{
    Rng rng(100 + GetParam());
    Histogram h(Histogram::kReportingBits);
    const double bound = h.relativeErrorBound();
    ASSERT_EQ(bound, 1.0 / 32.0);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t v = 0;
        switch (GetParam()) {
          case 0:
            v = static_cast<std::uint64_t>(rng.exponential(1e6));
            break;
          case 1:
            v = static_cast<std::uint64_t>(rng.uniform(0, 1e4));
            break;
          case 2:
            v = static_cast<std::uint64_t>(rng.lognormal(12.0, 1.0));
            break;
          case 3:
            v = static_cast<std::uint64_t>(
                rng.boundedPareto(1.2, 100.0, 1e8));
            break;
        }
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());
    for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        const std::size_t rank = static_cast<std::size_t>(
            p / 100.0 * static_cast<double>(values.size()));
        const std::uint64_t exact =
            values[std::min(rank, values.size() - 1)];
        const std::uint64_t approx = h.quantile(p / 100.0);
        const double tolerance =
            std::max(2.0, static_cast<double>(exact) * bound);
        EXPECT_NEAR(static_cast<double>(approx),
                    static_cast<double>(exact), tolerance)
            << "p=" << p << " dist=" << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Distributions, HistogramAccuracyTest,
                         ::testing::Values(0, 1, 2, 3));

} // namespace
} // namespace uqsim
