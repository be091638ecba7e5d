// AES-128/256 block cipher core, generic over the byte and plane types.
//
// Two encryption paths share one S-box gate list (aes_sbox_ct.hpp):
//  * aes_ctr_xor, the production CTR core. It keeps 64 counter blocks
//    bitsliced in 128 plane words from the first round to the last: plane
//    8*j + b holds bit 7-b of state byte j, and bit i of every plane word
//    belongs to block i of the batch. SubBytes runs the gate list on each
//    byte's 8 planes, ShiftRows renames planes, MixColumns is xtime done as
//    plane rewiring plus XORs, and AddRoundKey XORs round-key planes, each
//    broadcast branch-free from one key bit. Blocks enter and leave the
//    plane form through a 64x64 bit transpose that shifts only by public
//    amounts.
//  * aes_encrypt_block, the per-block reference oracle behind
//    Aes::encrypt_block, which the tests diff the CTR core against.
// Every step is branch-free and index-free with respect to the key and
// state; loops, shifts and indices depend only on public counts. Production
// code (aes.cpp) instantiates with std::uint8_t bytes and std::uint64_t
// planes; the constant-time lint instantiates with analysis::Tainted bytes
// and planes and asserts that no secret-dependent branch, table index or
// variable shift was recorded -- over exactly this code.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "convolve/common/bytes.hpp"
#include "convolve/crypto/detail/aes_sbox_ct.hpp"

namespace convolve::crypto::detail {

inline constexpr std::uint8_t kAesRcon[15] = {0x00, 0x01, 0x02, 0x04, 0x08,
                                              0x10, 0x20, 0x40, 0x80, 0x1b,
                                              0x36, 0x6c, 0xd8, 0xab, 0x4d};

/// Multiply a state byte by a public GF(2^8) constant (AES polynomial),
/// branchlessly: the conditional reduction becomes an arithmetic mask.
template <class B>
B gf_mul_const(B a, int c) {
  B r(0);
  while (c != 0) {
    if (c & 1) r = r ^ a;  // public branch: c is a compile-time constant
    const B hi = (a >> 7) & B(1);
    a = B((a << 1) ^ ((B(0) - hi) & B(0x1b)));
    c >>= 1;
  }
  return r;
}

// State is column-major: s[4*c + r] is row r, column c (FIPS 197).

template <class B>
void aes_shift_rows(B s[16]) {
  B t[16];
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < 4; ++r) t[4 * c + r] = s[4 * ((c + r) % 4) + r];
  }
  for (int i = 0; i < 16; ++i) s[i] = t[i];
}

template <class B>
void aes_inv_shift_rows(B s[16]) {
  B t[16];
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < 4; ++r) t[4 * ((c + r) % 4) + r] = s[4 * c + r];
  }
  for (int i = 0; i < 16; ++i) s[i] = t[i];
}

template <class B>
void aes_mix_columns(B s[16]) {
  for (int c = 0; c < 4; ++c) {
    B* col = s + 4 * c;
    const B a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = gf_mul_const(a0, 2) ^ gf_mul_const(a1, 3) ^ a2 ^ a3;
    col[1] = a0 ^ gf_mul_const(a1, 2) ^ gf_mul_const(a2, 3) ^ a3;
    col[2] = a0 ^ a1 ^ gf_mul_const(a2, 2) ^ gf_mul_const(a3, 3);
    col[3] = gf_mul_const(a0, 3) ^ a1 ^ a2 ^ gf_mul_const(a3, 2);
  }
}

template <class B>
void aes_inv_mix_columns(B s[16]) {
  for (int c = 0; c < 4; ++c) {
    B* col = s + 4 * c;
    const B a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = gf_mul_const(a0, 14) ^ gf_mul_const(a1, 11) ^
             gf_mul_const(a2, 13) ^ gf_mul_const(a3, 9);
    col[1] = gf_mul_const(a0, 9) ^ gf_mul_const(a1, 14) ^
             gf_mul_const(a2, 11) ^ gf_mul_const(a3, 13);
    col[2] = gf_mul_const(a0, 13) ^ gf_mul_const(a1, 9) ^
             gf_mul_const(a2, 14) ^ gf_mul_const(a3, 11);
    col[3] = gf_mul_const(a0, 11) ^ gf_mul_const(a1, 13) ^
             gf_mul_const(a2, 9) ^ gf_mul_const(a3, 14);
  }
}

template <class B>
void aes_add_round_key(B s[16], const B* rk) {
  for (int i = 0; i < 16; ++i) s[i] = s[i] ^ rk[i];
}

/// FIPS 197 key expansion. `key` has 4*nk bytes, `w` receives
/// 16*(rounds+1) bytes of round keys.
template <class B>
void aes_key_expand(const B* key, std::size_t nk, int rounds, B* w) {
  const std::size_t total_words = 4u * static_cast<std::size_t>(rounds + 1);
  for (std::size_t i = 0; i < 4 * nk; ++i) w[i] = key[i];
  for (std::size_t i = nk; i < total_words; ++i) {
    B temp[4];
    for (int j = 0; j < 4; ++j) temp[j] = w[4 * (i - 1) + std::size_t(j)];
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon.
      const B t0 = temp[0];
      temp[0] = temp[1];
      temp[1] = temp[2];
      temp[2] = temp[3];
      temp[3] = t0;
      aes_sub_bytes_ct(temp, 4);
      temp[0] = temp[0] ^ B(kAesRcon[i / nk]);
    } else if (nk > 6 && i % nk == 4) {
      aes_sub_bytes_ct(temp, 4);
    }
    for (int j = 0; j < 4; ++j) {
      w[4 * i + std::size_t(j)] = w[4 * (i - nk) + std::size_t(j)] ^ temp[j];
    }
  }
}

/// One block, byte by byte: the reference oracle for aes_ctr_xor.
template <class B>
void aes_encrypt_block(const B* round_keys, int rounds, const B in[16],
                       B out[16]) {
  B s[16];
  for (int i = 0; i < 16; ++i) s[i] = in[i];
  aes_add_round_key(s, round_keys);
  for (int round = 1; round < rounds; ++round) {
    aes_sub_bytes_ct(s, 16);
    aes_shift_rows(s);
    aes_mix_columns(s);
    aes_add_round_key(s, round_keys + 16 * round);
  }
  aes_sub_bytes_ct(s, 16);
  aes_shift_rows(s);
  aes_add_round_key(s, round_keys + 16 * rounds);
  for (int i = 0; i < 16; ++i) out[i] = s[i];
}

template <class B>
void aes_decrypt_block(const B* round_keys, int rounds,
                       const std::uint8_t inv_sbox[256], const B in[16],
                       B out[16]) {
  B s[16];
  for (int i = 0; i < 16; ++i) s[i] = in[i];
  aes_add_round_key(s, round_keys + 16 * rounds);
  for (int round = rounds - 1; round >= 1; --round) {
    aes_inv_shift_rows(s);
    for (int i = 0; i < 16; ++i) s[i] = ct_table_lookup256(inv_sbox, s[i]);
    aes_add_round_key(s, round_keys + 16 * round);
    aes_inv_mix_columns(s);
  }
  aes_inv_shift_rows(s);
  for (int i = 0; i < 16; ++i) s[i] = ct_table_lookup256(inv_sbox, s[i]);
  aes_add_round_key(s, round_keys);
  for (int i = 0; i < 16; ++i) out[i] = s[i];
}

// Bitsliced CTR core --------------------------------------------------------

/// Blocks per batch of the bitsliced core: one per bit of a plane word.
inline constexpr std::size_t kAesBatchBlocks = 64;

/// State byte that ShiftRows moves to byte i (column-major, s[4c + r]).
constexpr int aes_shift_rows_source(int i) {
  return 4 * ((i / 4 + i % 4) % 4) + i % 4;
}

/// Broadcast every round-key bit to a plane word: planes[8*i + b] is all
/// ones exactly when bit 7-b of round-key byte i is set, computed as
/// 0 - bit so no key bit selects a branch or an address. `planes` receives
/// 128 * (rounds + 1) words.
template <class W, class B>
void aes_round_key_planes(const B* round_keys, int rounds, W* planes) {
  for (int i = 0; i < 16 * (rounds + 1); ++i) {
    for (int b = 0; b < 8; ++b) {
      planes[8 * i + b] = W(0) - W((round_keys[i] >> (7 - b)) & B(1));
    }
  }
}

/// xtime (multiply by x mod the AES polynomial) on one byte's 8 planes,
/// plane 0 being bit 7: a shift is a renaming of planes, and the reduction
/// by 0x1b XORs the old bit-7 plane into bits 4, 3, 1 and 0.
template <class W>
void aes_xtime_planes(const W a[8], W out[8]) {
  out[0] = a[1];
  out[1] = a[2];
  out[2] = a[3];
  out[3] = a[4] ^ a[0];
  out[4] = a[5] ^ a[0];
  out[5] = a[6];
  out[6] = a[7] ^ a[0];
  out[7] = a[0];
}

/// Encrypt the batch held in the 128 planes `s` in place, with round-key
/// planes from aes_round_key_planes.
template <class W>
void aes_encrypt_planes(const W* rk_planes, int rounds, W s[128]) {
  for (int p = 0; p < 128; ++p) s[p] = s[p] ^ rk_planes[p];
  for (int round = 1; round <= rounds; ++round) {
    for (int j = 0; j < 16; ++j) aes_sbox_planes(s + 8 * j);
    const W* rk = rk_planes + 128 * round;
    W t[128];
    if (round == rounds) {
      // Final round: ShiftRows (a renaming) and AddRoundKey only.
      for (int i = 0; i < 16; ++i) {
        const W* a = s + 8 * aes_shift_rows_source(i);
        for (int b = 0; b < 8; ++b) t[8 * i + b] = a[b] ^ rk[8 * i + b];
      }
    } else {
      // ShiftRows is folded into where MixColumns reads its column from;
      // out_r = a_r ^ (a0 ^ a1 ^ a2 ^ a3) ^ xtime(a_r ^ a_{r+1}).
      for (int c = 0; c < 4; ++c) {
        const W* a[4];
        for (int r = 0; r < 4; ++r) {
          a[r] = s + 8 * aes_shift_rows_source(4 * c + r);
        }
        W sum[8];
        for (int b = 0; b < 8; ++b) {
          sum[b] = a[0][b] ^ a[1][b] ^ a[2][b] ^ a[3][b];
        }
        for (int r = 0; r < 4; ++r) {
          W d[8], x[8];
          for (int b = 0; b < 8; ++b) d[b] = a[r][b] ^ a[(r + 1) % 4][b];
          aes_xtime_planes(d, x);
          W* o = t + 8 * (4 * c + r);
          const W* k = rk + 8 * (4 * c + r);
          for (int b = 0; b < 8; ++b) o[b] = a[r][b] ^ sum[b] ^ x[b] ^ k[b];
        }
      }
    }
    for (int p = 0; p < 128; ++p) s[p] = t[p];
  }
}

/// In-place transpose of a 64x64 bit matrix, bit c of a[r] being element
/// (r, c): six rounds of block swaps, each shifting by a public amount.
template <class W>
void transpose64(W a[64]) {
  std::uint64_t m = 0x00000000ffffffffull;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const W t = ((a[k] >> j) ^ a[k | j]) & W(m);
      a[k] = a[k] ^ (t << j);
      a[k | j] = a[k | j] ^ t;
    }
  }
}

/// AES-CTR keystream XOR of `len` bytes from `in` into `out` (which may
/// alias), in batches of 64 counter blocks nonce || be32(counter + i). The
/// caller guarantees the counter does not wrap. W is a 64-bit plane word,
/// B the output byte type.
template <class W, class B>
void aes_ctr_xor(const W* rk_planes, int rounds, const std::uint8_t nonce[12],
                 std::uint32_t counter, const std::uint8_t* in, B* out,
                 std::size_t len) {
  constexpr std::size_t kBatchBytes = 16 * kAesBatchBlocks;
  // Counter block i as two little-endian words: bytes 0-7 are nonce, bytes
  // 8-11 nonce and bytes 12-15 the big-endian counter.
  const std::uint64_t head = load_le64(nonce);
  const std::uint64_t tail_nonce = load_le32(nonce + 8);
  for (std::size_t off = 0; off < len; off += kBatchBytes) {
    const std::size_t n = std::min(kBatchBytes, len - off);
    // Row i of lo/hi is the low/high word of counter block i.
    W lo[64], hi[64];
    for (std::size_t i = 0; i < kAesBatchBlocks; ++i) {
      const std::uint32_t c = counter + static_cast<std::uint32_t>(i);
      const std::uint32_t be = (c >> 24) | ((c >> 8) & 0xff00u) |
                               ((c << 8) & 0xff0000u) | (c << 24);
      lo[i] = W(head);
      hi[i] = W(tail_nonce | (std::uint64_t{be} << 32));
    }
    counter += static_cast<std::uint32_t>(kAesBatchBlocks);
    transpose64(lo);
    transpose64(hi);
    // Row 8*j + k now holds bit k of byte j of every block; planes run
    // from bit 7 down.
    W s[128];
    for (int j = 0; j < 8; ++j) {
      for (int b = 0; b < 8; ++b) {
        s[8 * j + b] = lo[8 * j + 7 - b];
        s[64 + 8 * j + b] = hi[8 * j + 7 - b];
      }
    }
    aes_encrypt_planes(rk_planes, rounds, s);
    for (int j = 0; j < 8; ++j) {
      for (int b = 0; b < 8; ++b) {
        lo[8 * j + 7 - b] = s[8 * j + b];
        hi[8 * j + 7 - b] = s[64 + 8 * j + b];
      }
    }
    transpose64(lo);
    transpose64(hi);
    for (std::size_t k = 0; k < n; k += 8) {
      const W& ks = (k % 16 == 0) ? lo[k / 16] : hi[k / 16];
      const std::size_t m = std::min<std::size_t>(8, n - k);
      for (std::size_t i = 0; i < m; ++i) {
        out[off + k + i] =
            B(in[off + k + i]) ^ B(ks >> static_cast<int>(8 * i));
      }
    }
  }
}

}  // namespace convolve::crypto::detail
