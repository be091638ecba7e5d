// Tests for the secret-taint constant-time lint: the Tainted<T> tracker
// itself (propagation + hazard detection) and the lint verdicts over the
// production crypto templates.
#include <gtest/gtest.h>

#include <cstdint>

#include "convolve/analysis/ct_taint.hpp"
#include "convolve/crypto/aes.hpp"

namespace convolve::analysis {
namespace {

using T8 = Tainted<std::uint8_t>;
using T32 = Tainted<std::uint32_t>;

TEST(Tainted, PropagatesThroughArithmetic) {
  const T8 s = T8::secret(0x5a);
  const T8 p(0x0f);

  EXPECT_TRUE((s ^ p).tainted());
  EXPECT_TRUE((p & s).tainted());
  EXPECT_TRUE((s + s).tainted());
  EXPECT_TRUE((~s).tainted());
  EXPECT_FALSE((p | p).tainted());
  EXPECT_EQ((s ^ p).value(), 0x55);

  // Width conversion keeps the flag.
  EXPECT_TRUE(T32(s).tainted());
  EXPECT_FALSE(T32(p).tainted());
  // Declassification clears it.
  EXPECT_FALSE(s.declassified().tainted());
}

TEST(Tainted, PublicOperationsRecordNothing) {
  ScopedTaintSink guard;
  T8 p(0x33);
  p = p ^ T8(0x11);
  p = p << 2;
  if (p == T8(0x88)) p = p | T8(1);          // public branch
  volatile auto unused = (p % T8(7)).value();  // public division
  (void)unused;
  EXPECT_EQ(guard.sink().total(), 0u);
}

TEST(Tainted, SecretBranchIsReported) {
  ScopedTaintSink guard;
  const T8 s = T8::secret(1);
  if (s == T8(1)) {
    // The *conversion to bool* is the hazard, regardless of the branch arm.
  }
  ASSERT_EQ(guard.sink().total(), 1u);
  EXPECT_EQ(guard.sink().findings()[0].kind, Hazard::kBranch);
}

TEST(Tainted, SecretTableIndexIsReported) {
  ScopedTaintSink guard;
  const auto v =
      tainted_lookup(crypto::aes_sbox_table(), T8::secret(0x42));
  EXPECT_TRUE(v.tainted());
  EXPECT_EQ(v.value(), crypto::aes_sbox_table()[0x42]);
  ASSERT_EQ(guard.sink().total(), 1u);
  EXPECT_EQ(guard.sink().findings()[0].kind, Hazard::kTableIndex);

  // A public index is fine.
  const auto w = tainted_lookup(crypto::aes_sbox_table(), T8(0x42));
  EXPECT_FALSE(w.tainted());
  EXPECT_EQ(guard.sink().total(), 1u);
}

TEST(Tainted, SecretShiftAmountIsReported) {
  ScopedTaintSink guard;
  const T32 x(0xdeadbeef);
  const auto y = x << T32::secret(4);
  EXPECT_TRUE(y.tainted());
  ASSERT_EQ(guard.sink().total(), 1u);
  EXPECT_EQ(guard.sink().findings()[0].kind, Hazard::kVariableShift);
}

TEST(Tainted, SecretDivisionIsReported) {
  ScopedTaintSink guard;
  const T32 s = T32::secret(1000);
  volatile auto unused = (s % T32(3329)).value();
  (void)unused;
  EXPECT_EQ(guard.sink().total(), 1u);
  EXPECT_EQ(guard.sink().findings()[0].kind, Hazard::kDivision);
}

TEST(Tainted, ContextLabelsNestInFindings) {
  ScopedTaintSink guard;
  {
    TaintScope outer("aes");
    TaintScope inner("key-expand");
    (void)tainted_lookup(crypto::aes_sbox_table(), T8::secret(1));
  }
  const auto findings = guard.sink().findings();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].context, "aes/key-expand");
  EXPECT_EQ(findings[0].count, 1u);
}

// Lint verdicts over the production templates ------------------------------

TEST(CtLint, Aes256IsConstantTime) {
  const auto r = lint_aes256();
  EXPECT_EQ(r.hazard_count, 0u) << "shipped AES-256 recorded timing hazards";
  EXPECT_TRUE(r.output_matches);
  EXPECT_TRUE(r.clean());
}

TEST(CtLint, Chacha20IsConstantTime) {
  const auto r = lint_chacha20();
  EXPECT_EQ(r.hazard_count, 0u);
  EXPECT_TRUE(r.output_matches);
}

TEST(CtLint, KeccakIsConstantTime) {
  const auto r = lint_keccak_f1600();
  EXPECT_EQ(r.hazard_count, 0u);
  EXPECT_TRUE(r.output_matches);
}

TEST(CtLint, HmacSha512IsConstantTime) {
  const auto r = lint_hmac_sha512();
  EXPECT_EQ(r.hazard_count, 0u);
  EXPECT_TRUE(r.output_matches);
}

// The NTT suites drive the shipped parameter sets (twiddles, Montgomery
// reduction and masked freeze) with a secret polynomial.
TEST(CtLint, KyberNttIsConstantTime) {
  const auto r = lint_kyber_ntt();
  EXPECT_EQ(r.hazard_count, 0u) << "shipped Kyber NTT recorded timing hazards";
  EXPECT_TRUE(r.output_matches) << "tainted NTT diverged from plain NTT";
  EXPECT_TRUE(r.clean());
}

TEST(CtLint, DilithiumNttIsConstantTime) {
  const auto r = lint_dilithium_ntt();
  EXPECT_EQ(r.hazard_count, 0u)
      << "shipped Dilithium NTT recorded timing hazards";
  EXPECT_TRUE(r.output_matches);
  EXPECT_TRUE(r.clean());
}

// ct_lint's exit status is computed from clean() alone: a planted hazard
// with a correct output must still fail the suite.
TEST(CtLint, PlantedSecretTableLookupIsNotClean) {
  ScopedTaintSink guard;
  const auto v = tainted_lookup(crypto::aes_sbox_table(), T8::secret(0x42));
  LintResult r;
  r.suite = "planted";
  r.findings = guard.sink().findings();
  r.hazard_count = guard.sink().total();
  r.output_matches = v.value() == crypto::aes_sbox_table()[0x42];
  EXPECT_TRUE(r.output_matches);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].kind, Hazard::kTableIndex);
  EXPECT_FALSE(r.clean());
}

TEST(CtLint, LintAllCoversEverySuite) {
  const auto all = lint_all();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].suite, "aes256");
  EXPECT_EQ(all[1].suite, "chacha20");
  EXPECT_EQ(all[2].suite, "keccak");
  EXPECT_EQ(all[3].suite, "hmac");
  EXPECT_EQ(all[4].suite, "kyber-ntt");
  EXPECT_EQ(all[5].suite, "dilithium-ntt");
  for (const auto& r : all) EXPECT_TRUE(r.clean()) << r.suite;
}

}  // namespace
}  // namespace convolve::analysis
