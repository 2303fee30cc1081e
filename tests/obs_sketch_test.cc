/**
 * @file
 * Quantile-sketch property tests: the telemetry pipeline's
 * per-interval histogram (a Histogram at obs::kSketchBits) must
 * answer any quantile within its documented relative error bound
 * (1/2^subBucketBits, <= 2% at the pipeline's resolution) against the
 * exact order statistics, across distribution shapes — uniform,
 * exponential (heavy right tail) and bimodal (the classic cache
 * hit/miss latency mixture a mean would hide) — and survive the
 * pipeline's snapshot-and-reset lifecycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "core/histogram.hh"
#include "obs/pipeline.hh"

namespace uqsim::obs {
namespace {

/** Exact order statistic with the sketch's own rank convention. */
std::uint64_t
exactQuantile(std::vector<std::uint64_t> sorted, double q)
{
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size()) + 0.5;
    std::uint64_t rank = static_cast<std::uint64_t>(pos);
    if (rank < 1)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

/** Assert every interesting quantile is within the documented bound. */
void
expectWithinBound(const std::vector<std::uint64_t> &samples,
                  const char *label)
{
    Histogram sketch(kSketchBits);
    for (std::uint64_t v : samples)
        sketch.record(v);
    ASSERT_EQ(sketch.count(), samples.size());

    const double bound = sketch.relativeErrorBound();
    EXPECT_LE(bound, 0.02) << "documented contract is <= 2%";

    for (double q : {0.50, 0.90, 0.95, 0.99, 0.999}) {
        const std::uint64_t exact = exactQuantile(samples, q);
        const std::uint64_t approx = sketch.quantile(q);
        // The sketch answers the upper bound of the bucket holding
        // the requested rank: never below the exact order statistic,
        // never more than one bucket width above it.
        EXPECT_GE(approx, exact) << label << " q=" << q;
        EXPECT_LE(static_cast<double>(approx),
                  static_cast<double>(exact) * (1.0 + bound) + 1.0)
            << label << " q=" << q << " exact=" << exact
            << " approx=" << approx;
    }
}

TEST(QuantileSketchTest, UniformWithinBound)
{
    std::mt19937_64 rng(1);
    std::uniform_int_distribution<std::uint64_t> d(1000, 50'000'000);
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 20000; ++i)
        samples.push_back(d(rng));
    expectWithinBound(samples, "uniform");
}

TEST(QuantileSketchTest, ExponentialWithinBound)
{
    std::mt19937_64 rng(2);
    std::exponential_distribution<double> d(1.0 / 2'000'000.0);
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 20000; ++i)
        samples.push_back(static_cast<std::uint64_t>(d(rng)) + 1);
    expectWithinBound(samples, "exponential");
}

TEST(QuantileSketchTest, BimodalWithinBound)
{
    // Cache-hit (~200us) / cache-miss (~8ms) mixture: quantiles must
    // land on the correct mode, which a mean-based summary cannot do.
    std::mt19937_64 rng(3);
    std::normal_distribution<double> hit(200'000.0, 20'000.0);
    std::normal_distribution<double> miss(8'000'000.0, 500'000.0);
    std::bernoulli_distribution is_hit(0.9);
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 20000; ++i) {
        const double v = is_hit(rng) ? hit(rng) : miss(rng);
        samples.push_back(static_cast<std::uint64_t>(std::max(1.0, v)));
    }
    expectWithinBound(samples, "bimodal");

    Histogram sketch(kSketchBits);
    for (std::uint64_t v : samples)
        sketch.record(v);
    EXPECT_LT(sketch.p50(), 400'000u) << "p50 must sit on the hit mode";
    EXPECT_GT(sketch.p99(), 6'000'000u)
        << "p99 must sit on the miss mode";
}

TEST(QuantileSketchTest, ExactScalarsAndEmptyState)
{
    Histogram s(kSketchBits);
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.min(), 0u);
    EXPECT_EQ(s.max(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.quantile(0.99), 0u);

    s.record(100);
    s.record(300);
    s.record(200);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_EQ(s.min(), 100u); // min/max/mean are exact, not bucketed
    EXPECT_EQ(s.max(), 300u);
    EXPECT_DOUBLE_EQ(s.mean(), 200.0);
}

TEST(QuantileSketchTest, QuantileClampsToObservedRange)
{
    Histogram s(kSketchBits);
    for (int i = 0; i < 100; ++i)
        s.record(1'000'000);
    EXPECT_EQ(s.quantile(0.0), 1'000'000u);
    EXPECT_EQ(s.quantile(1.0), 1'000'000u);
    EXPECT_EQ(s.p99(), 1'000'000u);
}

TEST(QuantileSketchTest, MergeMatchesCombinedStream)
{
    std::mt19937_64 rng(4);
    std::uniform_int_distribution<std::uint64_t> d(1, 10'000'000);
    Histogram a(kSketchBits), b(kSketchBits), all(kSketchBits);
    std::vector<std::uint64_t> combined;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t va = d(rng), vb = d(rng);
        a.record(va);
        b.record(vb);
        all.record(va);
        all.record(vb);
        combined.push_back(va);
        combined.push_back(vb);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
    for (double q : {0.5, 0.95, 0.99})
        EXPECT_EQ(a.quantile(q), all.quantile(q))
            << "merge must be exact at q=" << q;
}

TEST(QuantileSketchTest, ResetForgetsEverything)
{
    Histogram s(kSketchBits);
    for (std::uint64_t v = 1; v <= 1000; ++v)
        s.record(v * 1000);
    ASSERT_GT(s.p99(), 0u);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.quantile(0.99), 0u);
    EXPECT_EQ(s.min(), 0u);
    EXPECT_EQ(s.max(), 0u);

    // And the sketch is fully reusable after the O(touched) reset.
    s.record(42);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.quantile(0.5), 42u);
}

TEST(QuantileSketchTest, BatchQuantilesMatchScalarCalls)
{
    // The one-pass batch used by the telemetry sampler must agree
    // exactly with per-quantile queries, whatever the request order,
    // including the q<=0 / q>=1 exact endpoints.
    std::mt19937_64 rng(5);
    std::exponential_distribution<double> d(1.0 / 750'000.0);
    Histogram s(kSketchBits);
    for (int i = 0; i < 10000; ++i)
        s.record(static_cast<std::uint64_t>(d(rng)) + 1);

    const double qs[] = {0.99, 0.0, 0.50, 1.0, 0.95, 0.50};
    std::uint64_t out[6];
    s.quantiles(qs, 6, out);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(out[i], s.quantile(qs[i])) << "q=" << qs[i];

    // Empty sketch: everything is 0, same as quantile().
    Histogram empty(kSketchBits);
    std::uint64_t zeros[2] = {7, 7};
    const double both[] = {0.5, 0.99};
    empty.quantiles(both, 2, zeros);
    EXPECT_EQ(zeros[0], 0u);
    EXPECT_EQ(zeros[1], 0u);
}

TEST(QuantileSketchTest, HigherResolutionTightensTheBound)
{
    Histogram coarse(3), fine(10);
    EXPECT_DOUBLE_EQ(coarse.relativeErrorBound(), 1.0 / 8.0);
    EXPECT_DOUBLE_EQ(fine.relativeErrorBound(), 1.0 / 1024.0);
}

} // namespace
} // namespace uqsim::obs
