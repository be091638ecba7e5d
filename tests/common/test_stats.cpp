#include "convolve/common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "convolve/common/rng.hpp"

namespace convolve {
namespace {

// Naive two-pass reference for the one-pass Welford accumulator: compute
// the mean first, then the central moment sums directly.
struct TwoPass {
  double mean = 0.0;
  double cm2 = 0.0, cm3 = 0.0, cm4 = 0.0;
  explicit TwoPass(const std::vector<double>& xs) {
    for (double x : xs) mean += x;
    mean /= static_cast<double>(xs.size());
    for (double x : xs) {
      const double d = x - mean;
      cm2 += d * d;
      cm3 += d * d * d;
      cm4 += d * d * d * d;
    }
    const auto n = static_cast<double>(xs.size());
    cm2 /= n;
    cm3 /= n;
    cm4 /= n;
  }
};

TEST(Stats, Mean) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, VarianceAndStddev) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, MedianOdd) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
}

TEST(Stats, MedianEven) {
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs = {3, -1, 7, 2};
  EXPECT_DOUBLE_EQ(min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 7.0);
}

TEST(Stats, ArgminArgmax) {
  const std::vector<double> xs = {3, -1, 7, 2};
  EXPECT_EQ(argmin(xs), 1u);
  EXPECT_EQ(argmax(xs), 2u);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSideIsZero) {
  const std::vector<double> xs = {1, 1, 1, 1};
  const std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, WelchTSeparatedSamples) {
  const std::vector<double> a = {10.0, 10.1, 9.9, 10.05, 9.95};
  const std::vector<double> b = {20.0, 20.1, 19.9, 20.05, 19.95};
  EXPECT_LT(welch_t(a, b), -50.0);
  EXPECT_GT(welch_t(b, a), 50.0);
}

TEST(Stats, WelchTIdenticalSamplesNearZero) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(welch_t(a, a), 0.0);
}

TEST(Welford, MatchesTwoPassOnAdversarialData) {
  // Large common mean, tiny variance: the textbook catastrophic-
  // cancellation case a naive sum-of-squares accumulator fails on.
  Xoshiro256 rng(0x5EED);
  std::vector<double> xs;
  Welford acc;
  for (int i = 0; i < 4096; ++i) {
    const double x =
        1.0e6 + 1.0e-3 * static_cast<double>(rng.next_u64() & 0xFFFF) / 65536.0;
    xs.push_back(x);
    acc.add(x);
  }
  const TwoPass ref(xs);
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_NEAR(acc.mean(), ref.mean, std::abs(ref.mean) * 1e-12);
  ASSERT_GT(ref.cm2, 0.0);
  EXPECT_NEAR(acc.central_moment2(), ref.cm2, ref.cm2 * 1e-5);
  EXPECT_NEAR(acc.central_moment4(), ref.cm4, ref.cm4 * 1e-5);
  // cm3 of near-uniform data hovers around zero; bound the discrepancy by
  // the characteristic cube scale instead of a relative tolerance.
  EXPECT_NEAR(acc.central_moment3(), ref.cm3,
              ref.cm2 * std::sqrt(ref.cm2) * 1e-2);
  EXPECT_NEAR(acc.variance_sample(),
              ref.cm2 * static_cast<double>(xs.size()) /
                  static_cast<double>(xs.size() - 1),
              ref.cm2 * 1e-5);
}

TEST(Welford, PairwiseMergeEqualsSequentialAccumulation) {
  Xoshiro256 rng(0xACC);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(static_cast<double>(rng.next_u64() % 1000) - 500.0);
  }
  Welford sequential;
  for (double x : xs) sequential.add(x);

  // Rank-ordered merge of uneven chunks -- the shape parallel_reduce
  // produces.
  Welford merged;
  std::size_t pos = 0;
  for (std::size_t chunk : {137u, 1u, 450u, 412u}) {
    Welford part;
    for (std::size_t i = 0; i < chunk; ++i) part.add(xs[pos++]);
    merged.merge(part);
  }
  ASSERT_EQ(pos, xs.size());
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_NEAR(merged.mean(), sequential.mean(), 1e-12);
  EXPECT_NEAR(merged.central_moment2(), sequential.central_moment2(), 1e-9);
  EXPECT_NEAR(merged.central_moment3(), sequential.central_moment3(), 1e-6);
  EXPECT_NEAR(merged.central_moment4(), sequential.central_moment4(), 1e-4);
}

TEST(Welford, MergeWithEmptySideIsIdentity) {
  Welford a;
  a.add(1.0);
  a.add(3.0);
  Welford empty;
  Welford merged = a;
  merged.merge(empty);
  EXPECT_EQ(merged.count(), 2u);
  EXPECT_DOUBLE_EQ(merged.mean(), 2.0);
  Welford other = empty;
  other.merge(a);
  EXPECT_EQ(other.count(), 2u);
  EXPECT_DOUBLE_EQ(other.mean(), 2.0);
  EXPECT_DOUBLE_EQ(other.central_moment2(), a.central_moment2());
}

TEST(Welford, AccumulatorWelchTMatchesSpanOverload) {
  const std::vector<double> a = {10.0, 10.1, 9.9, 10.05, 9.95};
  const std::vector<double> b = {20.0, 20.1, 19.9, 20.05, 19.95};
  Welford wa, wb;
  for (double x : a) wa.add(x);
  for (double x : b) wb.add(x);
  EXPECT_NEAR(welch_t(wa, wb), welch_t(a, b), 1e-9);
  EXPECT_DOUBLE_EQ(welch_t(wa, wa), 0.0);
}

TEST(Welford, SecondOrderTSeparatesEqualMeanDifferentSpread) {
  // Same mean, different variance: invisible to the first-order t,
  // flagged by the centered-square (second-order TVLA) statistic.
  Xoshiro256 rng(0x22D);
  Welford narrow, wide;
  for (int i = 0; i < 20000; ++i) {
    const double u =
        static_cast<double>(rng.next_u64() >> 11) / 9007199254740992.0 - 0.5;
    narrow.add(u);
    wide.add(3.0 * u);
  }
  EXPECT_LT(std::abs(welch_t(narrow, wide)), 4.5);
  EXPECT_GT(std::abs(welch_t_centered_square(narrow, wide)), 4.5);
}

TEST(Welford, SecondOrderTIsZeroForBalancedTwoLevelClasses) {
  // Each class alternates between two levels, so every centered square
  // is the same and var(y) is zero in both classes: the statistic is the
  // degenerate 0, not CM2a - CM2b over the moments' rounding residue.
  Welford a, b;
  for (int i = 0; i < 1000; ++i) {
    a.add(i % 2 == 0 ? 7.0 : 10.0);
    b.add(i % 2 == 0 ? 2.0 : 4.0);
  }
  EXPECT_EQ(welch_t_centered_square(a, b), 0.0);
}

// --- Log2-histogram percentiles -----------------------------------------

TEST(Log2Percentile, EmptyHistogramIsZero) {
  Log2Histogram h;
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.percentile(99), 0u);
  EXPECT_EQ(h.count, 0u);
}

TEST(Log2Percentile, BucketBoundaryRounding) {
  // This test PINS the percentile contract (nearest rank, inclusive
  // upper bucket bound): 10 samples, one per value 1..10, so the rank-r
  // sample is the value r and every answer is that value's bucket hi.
  Log2Histogram h;
  for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);
  ASSERT_EQ(h.count, 10u);
  // p50 -> rank ceil(5) = 5 -> value 5 lives in [4,8) -> hi = 7.
  EXPECT_EQ(h.percentile(50), 7u);
  // p10 -> rank 1 -> value 1 -> bucket {1} -> hi = 1.
  EXPECT_EQ(h.percentile(10), 1u);
  // p11 -> rank ceil(1.1) = 2 -> value 2 -> [2,4) -> hi = 3.
  EXPECT_EQ(h.percentile(11), 3u);
  // p99/p100 -> rank 10 -> value 10 -> [8,16) -> hi = 15.
  EXPECT_EQ(h.percentile(99), 15u);
  EXPECT_EQ(h.percentile(100), 15u);
  // p0 and negative clamp to rank 1; pct > 100 clamps to rank count.
  EXPECT_EQ(h.percentile(0), 1u);
  EXPECT_EQ(h.percentile(-5), 1u);
  EXPECT_EQ(h.percentile(250), 15u);
}

TEST(Log2Percentile, ExactRankBoundaries) {
  // 4 samples in bucket {1} and 6 in [8,16): the cumulative count hits
  // rank 4 exactly at the first bucket, so p40 must stay in it, while
  // p41 (rank 5) crosses into the second.
  Log2Histogram h;
  for (int i = 0; i < 4; ++i) h.record(1);
  for (int i = 0; i < 6; ++i) h.record(9);
  EXPECT_EQ(h.percentile(40), 1u);
  EXPECT_EQ(h.percentile(41), 15u);
}

TEST(Log2Percentile, ZeroAndMaxBuckets) {
  Log2Histogram h;
  h.record(0);
  EXPECT_EQ(h.percentile(50), 0u);
  h.record(~0ull);
  // Two samples: p50 -> rank 1 -> bucket 0 -> 0; p99 -> rank 2 ->
  // bucket 64 -> UINT64_MAX.
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.percentile(99), ~0ull);
  EXPECT_EQ(log2_bucket_upper_bound(64), ~0ull);
  EXPECT_EQ(log2_bucket_upper_bound(0), 0u);
  EXPECT_EQ(log2_bucket_upper_bound(10), 1023u);
}

TEST(Log2Percentile, MergeMatchesCombinedRecording) {
  Log2Histogram a, b, combined;
  for (std::uint64_t v : {3ull, 300ull, 12ull}) {
    a.record(v);
    combined.record(v);
  }
  for (std::uint64_t v : {90000ull, 5ull}) {
    b.record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count, combined.count);
  EXPECT_EQ(a.sum, combined.sum);
  for (double p : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    EXPECT_EQ(a.percentile(p), combined.percentile(p)) << "p" << p;
  }
}

TEST(Log2Percentile, MeanTracksSumOverCount) {
  Log2Histogram h;
  h.record(10);
  h.record(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

}  // namespace
}  // namespace convolve
