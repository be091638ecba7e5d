// Small statistics helpers used by the power side-channel analysis and the
// benchmark harnesses (trace averaging, separability measures, summaries).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace convolve {

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  // population variance
double stddev(std::span<const double> xs);
double median(std::vector<double> xs);  // by value: sorts a copy
double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

/// Index of the smallest element; 0 for empty input is never returned
/// (empty input is a precondition violation and asserts).
std::size_t argmin(std::span<const double> xs);
std::size_t argmax(std::span<const double> xs);

/// Pearson correlation coefficient; returns 0 when either side is constant.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Welch's t-statistic between two samples (used for TVLA-style leakage
/// assessment in the CIM module). Returns 0 if either sample has < 2 points.
double welch_t(std::span<const double> a, std::span<const double> b);

/// Numerically stable one-pass accumulator of the first four central
/// moments (Welford/Pébay updates). Two accumulators over disjoint data
/// can be combined with merge() (Chan's pairwise formulas); merging in a
/// fixed order yields a deterministic result, which is what the sca TVLA
/// engine relies on for bit-identical verdicts at any thread count.
class Welford {
 public:
  void add(double x);
  void merge(const Welford& other);

  /// Fold one contiguous block of values into the accumulator as a single
  /// Chan merge: the block's mean and central moments are computed in two
  /// index-order passes (tight, division-free loops the compiler can
  /// vectorize), then merged. The result depends only on the values and
  /// the block boundaries -- the scalar-oracle and bitsliced sca paths
  /// fold identical 64-trace blocks through this, which is what makes
  /// their TVLA statistics bit-identical rather than merely close.
  void add_block(std::span<const double> xs);

  /// Build an accumulator directly from precomputed moments: n points with
  /// the given mean and central moment *sums* mk = sum (x - mean)^k. This
  /// is the bridge from exact integer power-sum accumulation (see the sca
  /// TVLA exact fold): callers that can compute the moments of a batch
  /// exactly convert once and merge, instead of folding value by value.
  static Welford from_moments(std::uint64_t n, double mean, double m2,
                              double m3, double m4) {
    Welford w;
    w.n_ = n;
    w.mean_ = mean;
    w.m2_ = m2;
    w.m3_ = m3;
    w.m4_ = m4;
    return w;
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Population variance M2/n (the TVLA centered-square preprocessing
  /// uses population moments); 0 for n < 1.
  double variance_population() const;
  /// Unbiased sample variance M2/(n-1); 0 for n < 2.
  double variance_sample() const;
  /// k-th central moment sum(x - mean)^k / n, k = 2, 3, 4.
  double central_moment2() const { return variance_population(); }
  double central_moment3() const;
  double central_moment4() const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum (x - mean)^2
  double m3_ = 0.0;  // sum (x - mean)^3
  double m4_ = 0.0;  // sum (x - mean)^4
};

/// First-order Welch t from two accumulators (same statistic as the span
/// overload). Returns 0 if either side has < 2 points or both variances
/// vanish.
double welch_t(const Welford& a, const Welford& b);

/// Second-order (TVLA) Welch t: the t-statistic of the centered squares
/// y = (x - mean)^2, computed from central moments -- mean(y) = CM2 and
/// var(y) = CM4 - CM2^2 (Schneider-Moradi leakage assessment methodology).
/// A var(y) within 1e-9 * CM4 of zero counts as zero; returns 0 if either
/// side has < 2 points or both var(y) vanish.
double welch_t_centered_square(const Welford& a, const Welford& b);

// Log2-histogram percentiles ---------------------------------------------
//
// The telemetry layer and the service latency tracking both bucket
// unsigned values by std::bit_width: bucket 0 is exactly {0}, bucket
// b >= 1 covers [2^(b-1), 2^b). A percentile over such buckets is defined
// by the nearest-rank method with a conservative (upper-bound) answer:
//
//  * count == 0 -> 0 (no data);
//  * rank = clamp(ceil(pct/100 * count), 1, count) -- so p0 is the rank-1
//    sample and p100 the rank-count sample;
//  * the result is the INCLUSIVE UPPER BOUND of the first bucket whose
//    cumulative count reaches rank: 0 for bucket 0, 2^b - 1 for buckets
//    1..63, and UINT64_MAX for bucket 64.
//
// Returning the bucket's upper bound makes the estimate a guaranteed
// over-approximation of the true percentile (never "p99 looks fine" while
// the real p99 is a bucket-width worse), at the cost of up to 2x
// granularity error inherent to log2 bucketing.

/// Inclusive upper bound of log2 bucket b (see above).
constexpr std::uint64_t log2_bucket_upper_bound(int b) {
  if (b <= 0) return 0;
  if (b >= 64) return ~0ull;
  return (1ull << b) - 1;
}

/// Nearest-rank percentile (upper bucket bound) over 65 log2 buckets.
/// `count` must equal the sum of `buckets` (callers that track the total
/// separately pass it to avoid a re-sum); pct is in [0, 100].
std::uint64_t log2_buckets_percentile(std::span<const std::uint64_t> buckets,
                                      std::uint64_t count, double pct);

/// Plain (non-atomic, non-registered) log2 histogram for code that wants
/// percentile summaries without the telemetry registry -- e.g. per-request
/// service latency folded serially after a parallel batch. Mirrors the
/// telemetry::Histogram bucketing exactly so values can be compared across
/// the two.
struct Log2Histogram {
  static constexpr int kBuckets = 65;  // bit_width of uint64 is 0..64
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void record(std::uint64_t v) {
    ++buckets[static_cast<std::size_t>(std::bit_width(v))];
    ++count;
    sum += v;
  }
  void merge(const Log2Histogram& other) {
    for (int b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
    count += other.count;
    sum += other.sum;
  }
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  std::uint64_t percentile(double pct) const {
    return log2_buckets_percentile({buckets.data(), buckets.size()}, count,
                                   pct);
  }
};

}  // namespace convolve
