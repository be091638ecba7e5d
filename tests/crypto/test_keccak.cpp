#include "convolve/crypto/keccak.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace convolve::crypto {
namespace {

// Vectors cross-checked against Python hashlib (which wraps OpenSSL).
TEST(Sha3, EmptyInput) {
  EXPECT_EQ(to_hex(sha3_256({})),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
}

TEST(Sha3, Abc256) {
  EXPECT_EQ(to_hex(sha3_256(as_bytes("abc"))),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532");
}

TEST(Sha3, Abc512) {
  EXPECT_EQ(to_hex(sha3_512(as_bytes("abc"))),
            "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e"
            "10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0");
}

TEST(Shake, Shake128Empty) {
  EXPECT_EQ(to_hex(shake128({}, 32)),
            "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26");
}

TEST(Shake, Shake256Abc) {
  EXPECT_EQ(to_hex(shake256(as_bytes("abc"), 64)),
            "483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739"
            "d5a15bef186a5386c75744c0527e1faa9f8726e462a12a4feb06bd8801e751e4");
}

TEST(Shake, IncrementalAbsorbMatchesOneShot) {
  Shake a(Shake::Variant::k256);
  a.absorb(as_bytes("ab"));
  a.absorb(as_bytes("c"));
  EXPECT_EQ(a.squeeze(64), shake256(as_bytes("abc"), 64));
}

TEST(Shake, IncrementalSqueezeMatchesOneShot) {
  Shake a(Shake::Variant::k256);
  a.absorb(as_bytes("abc"));
  const Bytes first = a.squeeze(10);
  const Bytes rest = a.squeeze(54);
  const Bytes full = shake256(as_bytes("abc"), 64);
  EXPECT_EQ(Bytes(full.begin(), full.begin() + 10), first);
  EXPECT_EQ(Bytes(full.begin() + 10, full.end()), rest);
}

TEST(Shake, LongOutputSpansMultipleBlocks) {
  // 500 bytes > SHAKE256 rate (136); exercises re-permutation in squeeze.
  const Bytes long_out = shake256(as_bytes("x"), 500);
  const Bytes prefix = shake256(as_bytes("x"), 100);
  EXPECT_EQ(Bytes(long_out.begin(), long_out.begin() + 100), prefix);
}

TEST(Sha3, LongInputSpansMultipleBlocks) {
  // 1000 bytes > SHA3-256 rate (136); consistency under chunked absorbs.
  Bytes data(1000, 0x5a);
  KeccakSponge a(136, 0x06), b(136, 0x06);
  a.absorb(data);
  for (std::size_t i = 0; i < data.size(); i += 7) {
    b.absorb({data.data() + i, std::min<std::size_t>(7, data.size() - i)});
  }
  Bytes da(32), db(32);
  a.squeeze(da);
  b.squeeze(db);
  EXPECT_EQ(da, db);
  EXPECT_EQ(da, sha3_256(data));
}

TEST(Sha3, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha3_256(as_bytes("abc")), sha3_256(as_bytes("abd")));
}

TEST(KeccakSponge, RejectsInvalidRate) {
  EXPECT_THROW(KeccakSponge(0, 0x06), std::invalid_argument);
  EXPECT_THROW(KeccakSponge(137, 0x06), std::invalid_argument);
  EXPECT_THROW(KeccakSponge(200, 0x06), std::invalid_argument);
}

TEST(KeccakSponge, AbsorbAfterSqueezeThrows) {
  KeccakSponge s(136, 0x1f);
  s.absorb(as_bytes("abc"));
  Bytes out(16);
  s.squeeze(out);
  EXPECT_THROW(s.absorb(as_bytes("more")), std::logic_error);
}

TEST(KeccakPermutation, ChangesState) {
  std::array<std::uint64_t, 25> st{};
  keccak_f1600(st);
  // Permutation of the zero state is a well-defined nonzero constant.
  EXPECT_NE(st[0], 0u);
  std::array<std::uint64_t, 25> st2{};
  keccak_f1600(st2);
  EXPECT_EQ(st, st2);
}

// KeccakF-1600 of the all-zero state, from the Keccak team's published
// intermediate values.
TEST(KeccakPermutation, ZeroStateKnownAnswer) {
  std::array<std::uint64_t, 25> st{};
  keccak_f1600(st);
  EXPECT_EQ(st[0], 0xf1258f7940e1dde7ull);
  EXPECT_EQ(st[1], 0x84d5ccf933c0478aull);
}

// absorb and squeeze move whole lanes and touch single bytes only at a
// block's head and tail. The reference goes one byte at a time, which never
// takes the lane path; the one-shot sponge, a 3-block message split at every
// offset up to one lane past the first block, and squeezes in every chunk
// size 1..17 must all equal it.
TEST(KeccakSponge, AnySplitAndChunkingMatchesOneShot) {
  for (const std::size_t rate : {72u, 136u, 168u}) {
    Bytes msg(3 * rate);
    for (std::size_t i = 0; i < msg.size(); ++i) {
      msg[i] = static_cast<std::uint8_t>(0x3b * i + rate);
    }
    const std::size_t out_len = 2 * rate + 5;
    KeccakSponge bytewise(rate, 0x1f);
    for (const std::uint8_t b : msg) bytewise.absorb({&b, 1});
    Bytes want(out_len);
    for (auto& b : want) bytewise.squeeze({&b, 1});
    KeccakSponge one(rate, 0x1f);
    one.absorb(msg);
    Bytes one_shot(out_len);
    one.squeeze(one_shot);
    EXPECT_EQ(one_shot, want) << "rate " << rate;
    for (std::size_t split = 0; split <= rate + 8; ++split) {
      for (std::size_t chunk = 1; chunk <= 17; ++chunk) {
        KeccakSponge s(rate, 0x1f);
        s.absorb({msg.data(), split});
        s.absorb({msg.data() + split, msg.size() - split});
        Bytes got(out_len);
        for (std::size_t off = 0; off < out_len; off += chunk) {
          s.squeeze({got.data() + off, std::min(chunk, out_len - off)});
        }
        ASSERT_EQ(got, want) << "rate " << rate << " split " << split
                             << " chunk " << chunk;
      }
    }
  }
}

}  // namespace
}  // namespace convolve::crypto
