// Keccak-f[1600] sponge, SHA-3 fixed-output hashes and SHAKE XOFs.
//
// SHA-3/SHAKE is the workhorse of the CONVOLVE security stack: Keystone-style
// boot measurement, enclave measurement, Kyber's and Dilithium's internal
// hashing/sampling, and the HADES Keccak case study all build on it. The
// implementation follows FIPS 202 and is validated against NIST example
// vectors in tests/crypto/test_keccak.cpp.
#pragma once

#include <array>
#include <cstdint>

#include "convolve/common/bytes.hpp"

namespace convolve::crypto {

/// The Keccak-f[1600] permutation over a 5x5 lane state. Exposed publicly so
/// the HADES Keccak template's cost model and the masking case study can
/// refer to the real round structure.
void keccak_f1600(std::array<std::uint64_t, 25>& state);

/// Incremental Keccak sponge with byte-granular absorb/squeeze. Both move
/// whole 8-byte lanes and touch single bytes only at a block's head and
/// tail.
class KeccakSponge {
 public:
  /// `rate_bytes` must be a positive multiple of 8 below 200.
  /// `domain_suffix` is the bits appended before padding (0x06 for SHA-3,
  /// 0x1f for SHAKE).
  KeccakSponge(std::size_t rate_bytes, std::uint8_t domain_suffix);

  void absorb(ByteView data);
  /// Finish absorbing; further absorb() calls are invalid.
  void finalize();
  /// Squeeze output bytes; implicitly finalizes on first call.
  void squeeze(std::span<std::uint8_t> out);

  std::size_t rate() const { return rate_; }

 private:
  std::array<std::uint64_t, 25> state_{};
  std::size_t rate_ = 0;
  std::size_t offset_ = 0;  // byte position within the current rate block
  std::uint8_t suffix_ = 0;
  bool squeezing_ = false;

  void xor_byte_into_state(std::size_t pos, std::uint8_t b);
  std::uint8_t state_byte(std::size_t pos) const;
};

// One-shot hashes -------------------------------------------------------

Bytes sha3_256(ByteView data);
Bytes sha3_512(ByteView data);
Bytes shake128(ByteView data, std::size_t out_len);
Bytes shake256(ByteView data, std::size_t out_len);

/// Incremental SHAKE XOF (needed by Kyber/Dilithium expanders, which
/// squeeze a data-dependent number of bytes).
class Shake {
 public:
  enum class Variant { k128, k256 };
  explicit Shake(Variant v)
      : sponge_(v == Variant::k128 ? 168 : 136, 0x1f) {}

  void absorb(ByteView data) { sponge_.absorb(data); }
  void squeeze(std::span<std::uint8_t> out) { sponge_.squeeze(out); }
  Bytes squeeze(std::size_t n) {
    Bytes out(n);
    sponge_.squeeze(out);
    return out;
  }

 private:
  KeccakSponge sponge_;
};

}  // namespace convolve::crypto
