// The shared lattice NTT module (detail/pqc_ntt.hpp): its derived tables
// against the published reference values, and its constant-time reduction
// against the `%`-plus-sign-fix formula, which survives only here, as the
// oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "convolve/crypto/detail/pqc_ntt.hpp"

namespace convolve::crypto::detail {
namespace {

template <class P>
std::int64_t oracle(std::int64_t a) {
  std::int64_t r = a % P::q;
  if (r < 0) r += P::q;
  return r;
}

// Checks reduce<P> on every value of [lo, hi] (clipped to the documented
// bound) whose offset from lo is a multiple of step; returns the number of
// mismatches and keeps the first one for the failure message.
template <class P>
std::uint64_t sweep(std::int64_t lo, std::int64_t hi, std::int64_t step,
                    std::int64_t& first_bad) {
  using W = typename P::Wide;
  const std::int64_t bound = P::kReduceBound - 1;
  lo = std::max(lo, -bound);
  hi = std::min(hi, bound);
  std::uint64_t bad = 0;
  for (std::int64_t a = lo;; a += step) {
    if (reduce<P>(static_cast<W>(a)) != oracle<P>(a)) {
      if (bad++ == 0) first_bad = a;
    }
    if (hi - a < step) break;
  }
  return bad;
}

// Every edge, with a dense window around it: 0, +-1, q-1, q, -q, +-(q-1)^2
// and the documented bound itself.
template <class P>
std::vector<std::int64_t> edges() {
  const std::int64_t q = P::q;
  const std::int64_t b = P::kReduceBound - 1;
  return {0, 1, -1, q - 1, q, -q, (q - 1) * (q - 1), -(q - 1) * (q - 1),
          b, -b};
}

template <class P>
void expect_edges_reduce() {
  for (const std::int64_t e : edges<P>()) {
    std::int64_t first_bad = 0;
    EXPECT_EQ(sweep<P>(e - 70000, e + 70000, 1, first_bad), 0u)
        << "near " << e << ", first mismatch at " << first_bad;
  }
}

TEST(PqcNtt, BoundIsQTimesHalfTheMontgomeryRadix) {
  EXPECT_EQ(KyberNtt::kReduceBound, std::int32_t{3329} << 15);
  EXPECT_EQ(DilithiumNtt::kReduceBound, std::int64_t{8380417} << 31);
}

// Kyber's bound is small enough to check every input it admits.
TEST(PqcNtt, KyberReduceMatchesOracleOverWholeBound) {
  std::int64_t first_bad = 0;
  const std::int64_t b = KyberNtt::kReduceBound - 1;
  EXPECT_EQ(sweep<KyberNtt>(-b, b, 1, first_bad), 0u)
      << "first mismatch at " << first_bad;
  expect_edges_reduce<KyberNtt>();
}

// Dilithium's is not: dense windows at every edge, a fine stride over the
// products of two residues its callers form, a coarse stride over the rest
// of the bound, and uniform samples from the whole of it.
TEST(PqcNtt, DilithiumReduceMatchesOracleAcrossBound) {
  using P = DilithiumNtt;
  expect_edges_reduce<P>();
  const std::int64_t q = P::q;
  const std::int64_t b = P::kReduceBound - 1;
  std::int64_t first_bad = 0;
  // q is prime, so strides that are not multiples of it hit every residue.
  EXPECT_EQ(sweep<P>(-(q - 1) * (q - 1), (q - 1) * (q - 1), 33554467,
                     first_bad),
            0u)
      << "first mismatch at " << first_bad;
  EXPECT_EQ(sweep<P>(-b, b, 8589934609, first_bad), 0u)
      << "first mismatch at " << first_bad;
  std::mt19937_64 rng(20240917);
  std::uniform_int_distribution<std::int64_t> dist(-b, b);
  std::uint64_t bad = 0;
  for (int i = 0; i < (1 << 21); ++i) {
    const std::int64_t a = dist(rng);
    bad += reduce<P>(a) != oracle<P>(a);
  }
  EXPECT_EQ(bad, 0u);
}

template <class P>
std::int64_t from_montgomery(typename P::Coeff x) {
  return freeze<P>(montgomery_reduce<P>(typename P::Wide{x}));
}

// The derived tables agree with the published ones (FIPS 203 zeta^64 = 1729;
// the reference ML-KEM zetas[1] = -758 and ML-DSA zetas[1] = 25847 are the
// same twiddles times R) and with 128^-1 = 3303, the scale Kyber's inverse
// used to hard-code.
TEST(PqcNtt, DerivedTablesMatchReferenceValues) {
  EXPECT_EQ(KyberNtt::zetas[1], -758 + 3329);
  EXPECT_EQ(from_montgomery<KyberNtt>(KyberNtt::zetas[1]), 1729);
  EXPECT_EQ(from_montgomery<KyberNtt>(KyberNtt::n_inv), 3303);
  EXPECT_EQ(DilithiumNtt::zetas[1], 25847);
  EXPECT_EQ(from_montgomery<DilithiumNtt>(DilithiumNtt::n_inv), 8347681);
  // zeta * zeta^-1 = 1, which is R in Montgomery form.
  for (std::size_t i = 1; i < KyberNtt::zetas.size(); ++i) {
    EXPECT_EQ(mont_mul<KyberNtt>(KyberNtt::zetas[i], KyberNtt::inv_zetas[i]),
              KyberNtt::kRModQ)
        << i;
  }
  for (std::size_t i = 1; i < DilithiumNtt::zetas.size(); ++i) {
    EXPECT_EQ(mont_mul<DilithiumNtt>(DilithiumNtt::zetas[i],
                                     DilithiumNtt::inv_zetas[i]),
              DilithiumNtt::kRModQ)
        << i;
  }
}

// Forward then inverse is the identity on canonical inputs, including the
// extremes 0 and q - 1 in every slot.
template <class P>
void expect_round_trip() {
  using C = typename P::Coeff;
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> dist(0, P::q - 1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<C> f(P::n);
    for (auto& c : f) {
      c = trial == 0 ? C(0) : trial == 1 ? C(P::q - 1) : C(dist(rng));
    }
    auto g = f;
    ntt_forward<P>(g.data());
    for (auto c : g) ASSERT_TRUE(c >= 0 && c < P::q);
    ntt_inverse<P>(g.data());
    ASSERT_EQ(g, f) << "trial " << trial;
  }
}

TEST(PqcNtt, ForwardInverseRoundTrip) {
  expect_round_trip<KyberNtt>();
  expect_round_trip<DilithiumNtt>();
}

}  // namespace
}  // namespace convolve::crypto::detail
