#include "convolve/crypto/aes.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <optional>

#include "convolve/common/rng.hpp"
#include "convolve/crypto/detail/aes_core.hpp"

namespace convolve::crypto {
namespace {

// FIPS 197 Appendix C vectors.
TEST(Aes, Fips197Aes128) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  const Aes aes(Aes::KeySize::k128, key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex({ct, 16}), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Fips197Aes256) {
  const Bytes key =
      from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  const Aes aes(Aes::KeySize::k256, key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex({ct, 16}), "8ea2b7ca516745bfeafc49904b496089");
}

// NIST SP 800-38A AES-256 ECB vector.
TEST(Aes, Sp80038aAes256Ecb) {
  const Bytes key = from_hex(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  const Aes aes(Aes::KeySize::k256, key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex({ct, 16}), "f3eed1bdb5d2a03c064b5a7e3db181f8");
}

TEST(Aes, DecryptInvertsEncrypt128) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Aes aes(Aes::KeySize::k128, key);
  for (int trial = 0; trial < 32; ++trial) {
    std::uint8_t pt[16], ct[16], back[16];
    for (int i = 0; i < 16; ++i) {
      pt[i] = static_cast<std::uint8_t>(trial * 16 + i);
    }
    aes.encrypt_block(pt, ct);
    aes.decrypt_block(ct, back);
    EXPECT_EQ(Bytes(pt, pt + 16), Bytes(back, back + 16));
  }
}

TEST(Aes, DecryptInvertsEncrypt256) {
  const Bytes key(32, 0x5c);
  const Aes aes(Aes::KeySize::k256, key);
  std::uint8_t pt[16] = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6};
  std::uint8_t ct[16], back[16];
  aes.encrypt_block(pt, ct);
  aes.decrypt_block(ct, back);
  EXPECT_EQ(Bytes(pt, pt + 16), Bytes(back, back + 16));
}

TEST(Aes, RejectsWrongKeyLength) {
  EXPECT_THROW(Aes(Aes::KeySize::k128, Bytes(32, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Aes::KeySize::k256, Bytes(16, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Aes::KeySize::k256, Bytes(31, 0)), std::invalid_argument);
}

TEST(Aes, RoundCounts) {
  EXPECT_EQ(Aes(Aes::KeySize::k128, Bytes(16, 0)).rounds(), 10);
  EXPECT_EQ(Aes(Aes::KeySize::k256, Bytes(32, 0)).rounds(), 14);
}

TEST(AesCtr, RoundTrip) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  const auto view = as_bytes("The quick brown fox jumps over the lazy dog");
  const Bytes pt(view.begin(), view.end());
  const Bytes ct = aes256_ctr(key, nonce, 0, pt);
  EXPECT_NE(ct, pt);
  EXPECT_EQ(aes256_ctr(key, nonce, 0, ct), pt);
}

TEST(AesCtr, CounterOffsetsKeystream) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  const Bytes zeros(32, 0);
  const Bytes ks0 = aes256_ctr(key, nonce, 0, zeros);
  const Bytes ks1 = aes256_ctr(key, nonce, 1, zeros);
  // Block 1 of ks0 equals block 0 of ks1.
  EXPECT_EQ(Bytes(ks0.begin() + 16, ks0.end()),
            Bytes(ks1.begin(), ks1.begin() + 16));
}

TEST(AesCtr, RejectsBadNonce) {
  EXPECT_THROW(aes256_ctr(Bytes(32, 0), Bytes(11, 0), 0, Bytes(4, 0)),
               std::invalid_argument);
}

TEST(AesCtr, NonBlockAlignedLength) {
  const Bytes key(32, 0x33);
  const Bytes nonce(12, 0x44);
  const Bytes pt(23, 0xab);
  EXPECT_EQ(aes256_ctr(key, nonce, 0, aes256_ctr(key, nonce, 0, pt)), pt);
}

// NIST SP 800-38A F.5.5 CTR-AES256.Encrypt: the counter block
// f0f1...fbfcfdfeff is a 12-byte nonce and initial counter 0xfcfdfeff.
TEST(AesCtr, Sp80038aCtrAes256) {
  const Bytes key = from_hex(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const Bytes nonce = from_hex("f0f1f2f3f4f5f6f7f8f9fafb");
  const Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  EXPECT_EQ(to_hex(aes256_ctr(key, nonce, 0xfcfdfeffu, pt)),
            "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5"
            "2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6");
}

/// The per-block reference: one detail::aes_encrypt_block per counter
/// block, counting in 64 bits so a wrap shows up as a counter past 2^32.
/// Returns nullopt where the 32-bit counter would wrap.
std::optional<Bytes> ctr_oracle(ByteView key, ByteView nonce,
                                std::uint64_t counter, ByteView data) {
  std::array<std::uint8_t, 15 * 16> round_keys;
  detail::aes_key_expand(key.data(), 8, 14, round_keys.data());
  Bytes out(data.begin(), data.end());
  std::uint8_t block[16];
  std::memcpy(block, nonce.data(), 12);
  for (std::size_t off = 0; off < out.size(); off += 16, ++counter) {
    if (counter > 0xffffffffu) return std::nullopt;
    store_be32(block + 12, static_cast<std::uint32_t>(counter));
    std::uint8_t ks[16];
    detail::aes_encrypt_block(round_keys.data(), 14, block, ks);
    for (std::size_t i = 0; i < 16 && off + i < out.size(); ++i) {
      out[off + i] ^= ks[i];
    }
  }
  return out;
}

// The 32-bit block counter must never wrap: a wrap would reuse the
// keystream of counter 0.
TEST(AesCtr, RejectsCounterWrap) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  const Bytes one_block(16, 0), one_byte_more(17, 0);
  const Bytes last = aes256_ctr(key, nonce, 0xffffffffu, one_block);
  EXPECT_EQ(std::optional<Bytes>(last),
            ctr_oracle(key, nonce, 0xffffffffu, one_block));
  EXPECT_NE(last, aes256_ctr(key, nonce, 0, one_block));
  EXPECT_THROW(aes256_ctr(key, nonce, 0xffffffffu, one_byte_more),
               std::invalid_argument);
  EXPECT_EQ(ctr_oracle(key, nonce, 0xffffffffu, one_byte_more), std::nullopt);
  EXPECT_TRUE(aes256_ctr(key, nonce, 0xffffffffu, {}).empty());
  EXPECT_NO_THROW(aes256_ctr(key, nonce, 0xfffffffeu, Bytes(32, 0)));
  EXPECT_THROW(aes256_ctr(key, nonce, 0xfffffffeu, Bytes(33, 0)),
               std::invalid_argument);
}

// The 64-block bitsliced batches against the per-block oracle: every
// length 0..2*1024+17 (every partial batch and partial block), random keys
// and nonces, and one counter in four among the last 64 below 2^32, where
// the two must also agree on when the counter would wrap.
TEST(AesCtr, BatchedMatchesPerBlockOracle) {
  const Xoshiro256 root(0xae5c7e11);
  int wraps = 0;
  for (std::size_t len = 0; len <= 2 * 1024 + 17; ++len) {
    Xoshiro256 g = root.split(len);
    Bytes key(32), nonce(12), data(len);
    g.fill_bytes(key);
    g.fill_bytes(nonce);
    g.fill_bytes(data);
    const auto counter = static_cast<std::uint32_t>(
        g.uniform(4) == 0 ? 0xffffffffu - g.uniform(64) : g.next_u64());
    const auto want = ctr_oracle(key, nonce, counter, data);
    if (want) {
      EXPECT_EQ(aes256_ctr(key, nonce, counter, data), *want)
          << "len " << len << " counter " << counter;
    } else {
      ++wraps;
      EXPECT_THROW(aes256_ctr(key, nonce, counter, data),
                   std::invalid_argument)
          << "len " << len << " counter " << counter;
    }
  }
  EXPECT_GT(wraps, 0);
}

}  // namespace
}  // namespace convolve::crypto
