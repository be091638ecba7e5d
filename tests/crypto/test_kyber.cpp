#include "convolve/crypto/kyber.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "convolve/common/rng.hpp"

namespace convolve::crypto::kyber {
namespace {

Bytes seed64(std::uint8_t fill) { return Bytes(64, fill); }

TEST(Kyber, ObjectSizesMatchMlKem512) {
  const auto kp = keygen(seed64(1));
  EXPECT_EQ(kp.ek.size(), 800u);
  EXPECT_EQ(kp.dk.size(), 1632u);
  const auto enc = encaps(kp.ek, Bytes(32, 2));
  EXPECT_EQ(enc.ciphertext.size(), 768u);
}

TEST(Kyber, EncapsDecapsAgree) {
  const auto kp = keygen(seed64(3));
  const auto enc = encaps(kp.ek, Bytes(32, 4));
  const auto ss = decaps(kp.dk, enc.ciphertext);
  EXPECT_EQ(Bytes(ss.begin(), ss.end()),
            Bytes(enc.shared_secret.begin(), enc.shared_secret.end()));
}

TEST(Kyber, ManyRandomSeedsAgree) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10; ++i) {
    Bytes seed(64), m(32);
    rng.fill_bytes(seed);
    rng.fill_bytes(m);
    const auto kp = keygen(seed);
    const auto enc = encaps(kp.ek, m);
    const auto ss = decaps(kp.dk, enc.ciphertext);
    EXPECT_TRUE(ct_equal({ss.data(), ss.size()},
                         {enc.shared_secret.data(), enc.shared_secret.size()}))
        << "iteration " << i;
  }
}

TEST(Kyber, KeygenDeterministic) {
  const auto a = keygen(seed64(7));
  const auto b = keygen(seed64(7));
  EXPECT_EQ(a.ek, b.ek);
  EXPECT_EQ(a.dk, b.dk);
}

TEST(Kyber, DifferentSeedsDifferentKeys) {
  EXPECT_NE(keygen(seed64(1)).ek, keygen(seed64(2)).ek);
}

TEST(Kyber, TamperedCiphertextImplicitlyRejected) {
  const auto kp = keygen(seed64(5));
  const auto enc = encaps(kp.ek, Bytes(32, 6));
  Bytes bad = enc.ciphertext;
  bad[100] ^= 0x01;
  const auto ss = decaps(kp.dk, bad);
  // Implicit rejection: a secret IS returned, but it differs.
  EXPECT_FALSE(ct_equal({ss.data(), ss.size()},
                        {enc.shared_secret.data(), enc.shared_secret.size()}));
}

TEST(Kyber, WrongKeyYieldsDifferentSecret) {
  const auto kp1 = keygen(seed64(8));
  const auto kp2 = keygen(seed64(9));
  const auto enc = encaps(kp1.ek, Bytes(32, 10));
  const auto ss = decaps(kp2.dk, enc.ciphertext);
  EXPECT_FALSE(ct_equal({ss.data(), ss.size()},
                        {enc.shared_secret.data(), enc.shared_secret.size()}));
}

TEST(Kyber, PkeRoundTrip) {
  const auto kp = pke_keygen(Bytes(32, 11));
  const Bytes msg(32, 0xa5);
  const Bytes ct = pke_encrypt(kp.pk, msg, Bytes(32, 12));
  EXPECT_EQ(pke_decrypt(kp.sk, ct), msg);
}

TEST(Kyber, PkeRandomMessagesRoundTrip) {
  Xoshiro256 rng(123);
  const auto kp = pke_keygen(Bytes(32, 13));
  for (int i = 0; i < 10; ++i) {
    Bytes msg(32), coins(32);
    rng.fill_bytes(msg);
    rng.fill_bytes(coins);
    EXPECT_EQ(pke_decrypt(kp.sk, pke_encrypt(kp.pk, msg, coins)), msg);
  }
}

TEST(Kyber, CiphertextDependsOnCoins) {
  const auto kp = pke_keygen(Bytes(32, 14));
  const Bytes msg(32, 1);
  EXPECT_NE(pke_encrypt(kp.pk, msg, Bytes(32, 1)),
            pke_encrypt(kp.pk, msg, Bytes(32, 2)));
}

TEST(Kyber, InputValidation) {
  EXPECT_THROW(keygen(Bytes(63, 0)), std::invalid_argument);
  const auto kp = keygen(seed64(15));
  EXPECT_THROW(encaps(Bytes(10, 0), Bytes(32, 0)), std::invalid_argument);
  EXPECT_THROW(encaps(kp.ek, Bytes(31, 0)), std::invalid_argument);
  EXPECT_THROW(decaps(kp.dk, Bytes(767, 0)), std::invalid_argument);
  EXPECT_THROW(decaps(Bytes(10, 0), Bytes(768, 0)), std::invalid_argument);
}

// The multiply-shift compress against the division it replaced, on every
// input it can see, and compress_1 against the branchy centered-distance
// decode pke_decrypt used before.
TEST(Kyber, CompressMatchesDivisionOverWholeRange) {
  for (int d = 1; d <= 13; ++d) {
    for (int x = 0; x < kQ; ++x) {
      const std::int64_t num = (static_cast<std::int64_t>(x) << d) + kQ / 2;
      const auto expected =
          static_cast<std::int16_t>((num / kQ) & ((1 << d) - 1));
      ASSERT_EQ(compress(static_cast<std::int16_t>(x), d), expected)
          << "d=" << d << " x=" << x;
    }
  }
}

TEST(Kyber, DecodeMatchesCenteredDistanceRule) {
  int ones = 0;
  for (int w = 0; w < kQ; ++w) {
    const int centered = w > kQ / 2 ? w - kQ : w;
    const int old_bit = std::abs(centered) > kQ / 4 ? 1 : 0;
    ASSERT_EQ(compress(static_cast<std::int16_t>(w), 1), old_bit) << w;
    ASSERT_EQ(old_bit, (w >= 833 && w <= 2496) ? 1 : 0) << w;
    ones += old_bit;
  }
  EXPECT_EQ(ones, 2496 - 833 + 1);
}

}  // namespace
}  // namespace convolve::crypto::kyber
