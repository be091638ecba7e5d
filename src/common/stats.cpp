#include "convolve/common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace convolve {

std::uint64_t log2_buckets_percentile(std::span<const std::uint64_t> buckets,
                                      std::uint64_t count, double pct) {
  if (count == 0) return 0;
  // Nearest rank: ceil(pct/100 * count), clamped into [1, count] so that
  // pct <= 0 degenerates to the minimum sample and pct >= 100 to the max.
  const double raw = std::ceil(pct / 100.0 * static_cast<double>(count));
  std::uint64_t rank = raw < 1.0 ? 1 : static_cast<std::uint64_t>(raw);
  rank = std::min(rank, count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) return log2_bucket_upper_bound(static_cast<int>(b));
  }
  // count overstated the bucket total; answer with the largest populated
  // bucket rather than inventing data.
  for (std::size_t b = buckets.size(); b-- > 0;) {
    if (buckets[b] != 0) return log2_bucket_upper_bound(static_cast<int>(b));
  }
  return 0;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  std::nth_element(xs.begin(),
                   xs.begin() + static_cast<std::ptrdiff_t>(mid) - 1,
                   xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (xs[mid - 1] + hi);
}

double min_value(std::span<const double> xs) {
  assert(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  assert(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

std::size_t argmin(std::span<const double> xs) {
  assert(!xs.empty());
  return static_cast<std::size_t>(
      std::min_element(xs.begin(), xs.end()) - xs.begin());
}

std::size_t argmax(std::span<const double> xs) {
  assert(!xs.empty());
  return static_cast<std::size_t>(
      std::max_element(xs.begin(), xs.end()) - xs.begin());
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  assert(xs.size() == ys.size());
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double welch_t(std::span<const double> a, std::span<const double> b) {
  if (a.size() < 2 || b.size() < 2) return 0.0;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  // Sample (unbiased) variances.
  const double va = variance(a) * na / (na - 1.0);
  const double vb = variance(b) * nb / (nb - 1.0);
  const double denom = std::sqrt(va / na + vb / nb);
  if (denom == 0.0) return 0.0;
  return (mean(a) - mean(b)) / denom;
}

void Welford::add(double x) {
  // Pébay's single-pass update of the first four moment sums.
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ -
         4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;
}

void Welford::add_block(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n == 0) return;
  // Both passes accumulate into four interleaved partials (element i goes
  // to partial i&3) combined as (p0+p1)+(p2+p3). The interleave breaks the
  // serial FP dependency chain -- ~4x ILP on the per-block hot path -- and
  // the accumulation order is still a pure function of the block contents,
  // so every caller sees bit-identical moments for identical blocks.
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s[0] += xs[i];
    s[1] += xs[i + 1];
    s[2] += xs[i + 2];
    s[3] += xs[i + 3];
  }
  for (; i < n; ++i) s[i & 3] += xs[i];
  const double block_mean =
      ((s[0] + s[1]) + (s[2] + s[3])) / static_cast<double>(n);
  double p2[4] = {0.0, 0.0, 0.0, 0.0};
  double p3[4] = {0.0, 0.0, 0.0, 0.0};
  double p4[4] = {0.0, 0.0, 0.0, 0.0};
  for (i = 0; i + 4 <= n; i += 4) {
    const double d0 = xs[i] - block_mean;
    const double d1 = xs[i + 1] - block_mean;
    const double d2 = xs[i + 2] - block_mean;
    const double d3 = xs[i + 3] - block_mean;
    const double q0 = d0 * d0;
    const double q1 = d1 * d1;
    const double q2 = d2 * d2;
    const double q3 = d3 * d3;
    p2[0] += q0;
    p2[1] += q1;
    p2[2] += q2;
    p2[3] += q3;
    p3[0] += q0 * d0;
    p3[1] += q1 * d1;
    p3[2] += q2 * d2;
    p3[3] += q3 * d3;
    p4[0] += q0 * q0;
    p4[1] += q1 * q1;
    p4[2] += q2 * q2;
    p4[3] += q3 * q3;
  }
  for (; i < n; ++i) {
    const double d = xs[i] - block_mean;
    const double d2 = d * d;
    p2[i & 3] += d2;
    p3[i & 3] += d2 * d;
    p4[i & 3] += d2 * d2;
  }
  Welford block;
  block.n_ = n;
  block.mean_ = block_mean;
  block.m2_ = (p2[0] + p2[1]) + (p2[2] + p2[3]);
  block.m3_ = (p3[0] + p3[1]) + (p3[2] + p3[3]);
  block.m4_ = (p4[0] + p4[1]) + (p4[2] + p4[3]);
  merge(block);
}

void Welford::merge(const Welford& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Chan / Terriberry pairwise combination.
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;

  const double m2 = m2_ + other.m2_ + delta2 * na * nb / n;
  const double m3 = m3_ + other.m3_ +
                    delta * delta2 * na * nb * (na - nb) / (n * n) +
                    3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  const double m4 =
      m4_ + other.m4_ +
      delta2 * delta2 * na * nb * (na * na - na * nb + nb * nb) /
          (n * n * n) +
      6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
      4.0 * delta * (na * other.m3_ - nb * m3_) / n;

  mean_ += delta * nb / n;
  m2_ = m2;
  m3_ = m3;
  m4_ = m4;
  n_ += other.n_;
}

double Welford::variance_population() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double Welford::variance_sample() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Welford::central_moment3() const {
  return n_ > 0 ? m3_ / static_cast<double>(n_) : 0.0;
}

double Welford::central_moment4() const {
  return n_ > 0 ? m4_ / static_cast<double>(n_) : 0.0;
}

double welch_t(const Welford& a, const Welford& b) {
  if (a.count() < 2 || b.count() < 2) return 0.0;
  const double denom =
      std::sqrt(a.variance_sample() / static_cast<double>(a.count()) +
                b.variance_sample() / static_cast<double>(b.count()));
  if (denom == 0.0) return 0.0;
  return (a.mean() - b.mean()) / denom;
}

double welch_t_centered_square(const Welford& a, const Welford& b) {
  if (a.count() < 2 || b.count() < 2) return 0.0;
  // For y = (x - mean)^2: mean(y) = CM2 and var(y) = CM4 - CM2^2. A class
  // with two equally likely levels has the same y for every sample, so
  // var(y) is 0, but the running moments reach it only up to rounding: a
  // var(y) within 1e-9 * CM4 of zero counts as zero, so the statistic is
  // the degenerate 0 rather than the difference over rounding residue.
  const auto var_y = [](const Welford& w) {
    const double cm2 = w.central_moment2();
    const double v = w.central_moment4() - cm2 * cm2;
    return std::abs(v) <= 1e-9 * w.central_moment4() ? 0.0 : v;
  };
  const double denom = std::sqrt(var_y(a) / static_cast<double>(a.count()) +
                                 var_y(b) / static_cast<double>(b.count()));
  if (denom <= 0.0 || !std::isfinite(denom)) return 0.0;
  return (a.central_moment2() - b.central_moment2()) / denom;
}

}  // namespace convolve
