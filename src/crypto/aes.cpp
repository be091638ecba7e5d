#include "convolve/crypto/aes.hpp"

#include <stdexcept>

#include "convolve/crypto/detail/aes_core.hpp"

namespace convolve::crypto {

namespace {

// GF(2^8) helpers with the AES polynomial x^8 + x^4 + x^3 + x + 1.
constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

constexpr std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t r = 0;
  while (b != 0) {
    if (b & 1) r ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return r;
}

// The derived tables are kept for two reasons even though encryption now
// runs the bitsliced Boyar-Peralta circuit: decryption does a
// constant-time scan lookup of the inverse table, and the analysis tests
// cross-check the circuit against this independently-derived table.
struct SboxTables {
  std::array<std::uint8_t, 256> sbox{};
  std::array<std::uint8_t, 256> inv_sbox{};

  constexpr SboxTables() {
    // Build the multiplicative inverse table by brute force (256^2 checks,
    // done once at static init), then apply the affine transform.
    std::array<std::uint8_t, 256> inv{};
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        if (gf_mul(static_cast<std::uint8_t>(a),
                   static_cast<std::uint8_t>(b)) == 1) {
          inv[static_cast<std::size_t>(a)] = static_cast<std::uint8_t>(b);
          break;
        }
      }
    }
    for (int i = 0; i < 256; ++i) {
      const std::uint8_t x = inv[static_cast<std::size_t>(i)];
      std::uint8_t y = x;
      std::uint8_t s = x;
      for (int k = 0; k < 4; ++k) {
        y = static_cast<std::uint8_t>((y << 1) | (y >> 7));
        s ^= y;
      }
      s ^= 0x63;
      sbox[static_cast<std::size_t>(i)] = s;
      inv_sbox[s] = static_cast<std::uint8_t>(i);
    }
  }
};

const SboxTables kTables{};

}  // namespace

const std::uint8_t* aes_sbox_table() { return kTables.sbox.data(); }
const std::uint8_t* aes_inv_sbox_table() { return kTables.inv_sbox.data(); }

Aes::Aes(KeySize size, ByteView key) {
  const std::size_t nk = (size == KeySize::k128) ? 4 : 8;  // words in key
  rounds_ = (size == KeySize::k128) ? 10 : 14;
  if (key.size() != nk * 4) {
    throw std::invalid_argument("Aes: key length does not match key size");
  }
  detail::aes_key_expand(key.data(), nk, rounds_, round_keys_.data());
}

void Aes::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  detail::aes_encrypt_block(round_keys_.data(), rounds_, in, out);
}

void Aes::decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  detail::aes_decrypt_block(round_keys_.data(), rounds_,
                            kTables.inv_sbox.data(), in, out);
}

Bytes aes256_ctr(ByteView key, ByteView nonce, std::uint32_t initial_counter,
                 ByteView data) {
  if (nonce.size() != 12) {
    throw std::invalid_argument("aes256_ctr: nonce must be 12 bytes");
  }
  const std::uint64_t blocks = data.size() / 16 + (data.size() % 16 != 0);
  if (initial_counter + blocks > (std::uint64_t{1} << 32)) {
    throw std::invalid_argument("aes256_ctr: 32-bit block counter would wrap");
  }
  if (key.size() != 32) {
    throw std::invalid_argument("aes256_ctr: key must be 32 bytes");
  }
  constexpr int kRounds = 14;
  std::array<std::uint8_t, 16 * (kRounds + 1)> round_keys;
  detail::aes_key_expand(key.data(), 8, kRounds, round_keys.data());
  std::array<std::uint64_t, 128 * (kRounds + 1)> rk_planes;
  detail::aes_round_key_planes(round_keys.data(), kRounds, rk_planes.data());
  Bytes out(data.begin(), data.end());
  detail::aes_ctr_xor(rk_planes.data(), kRounds, nonce.data(), initial_counter,
                      out.data(), out.data(), out.size());
  return out;
}

}  // namespace convolve::crypto
