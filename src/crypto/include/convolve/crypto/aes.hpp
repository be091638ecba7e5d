// AES-128/AES-256 block cipher (FIPS 197) plus a CTR-mode stream helper.
//
// CONVOLVE uses AES-256 for payload encryption (the HADES case study in
// Table II of the paper targets exactly this algorithm); the TEE's data
// sealing builds an encrypt-then-MAC AEAD on top of AES-256-CTR. The S-box
// table is computed at static-init time from the GF(2^8) inverse so it is
// derived, not transcribed. The cipher itself is constant-time
// (detail/aes_core.hpp): aes256_ctr encrypts 64 counter blocks per batch
// bitsliced in 64-bit plane words, with SubBytes as the Boyar-Peralta gate
// list; Aes::encrypt_block runs the same rounds one block at a time and is
// the reference oracle the CTR core is tested against; the inverse S-box
// uses a full-table scan. No secret ever indexes memory or picks a branch.
#pragma once

#include <array>
#include <cstdint>

#include "convolve/common/bytes.hpp"

namespace convolve::crypto {

/// AES with a 128- or 256-bit key. Encrypt and decrypt single 16-byte blocks.
class Aes {
 public:
  enum class KeySize { k128, k256 };

  Aes(KeySize size, ByteView key);

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;
  void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  int rounds() const { return rounds_; }

 private:
  int rounds_ = 0;
  // Round keys as bytes: (rounds+1) * 16.
  std::array<std::uint8_t, 15 * 16> round_keys_{};
};

/// AES-256-CTR keystream XOR. `nonce` is 12 bytes; the 4-byte big-endian
/// block counter starts at `initial_counter`. Encryption and decryption are
/// the same operation. Throws std::invalid_argument when the data needs
/// counters past 2^32 - 1: the counter never wraps into keystream already
/// used.
Bytes aes256_ctr(ByteView key, ByteView nonce, std::uint32_t initial_counter,
                 ByteView data);

/// The derived (not transcribed) S-box tables, 256 bytes each. Exposed so
/// the static analyzer can cross-check the bitsliced S-box circuit and so
/// lint harnesses can demonstrate what a *naive* table lookup looks like.
const std::uint8_t* aes_sbox_table();
const std::uint8_t* aes_inv_sbox_table();

}  // namespace convolve::crypto
