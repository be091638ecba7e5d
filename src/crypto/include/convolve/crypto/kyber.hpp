// Kyber / ML-KEM-512-shaped lattice KEM.
//
// CONVOLVE's HADES case study explores Kyber-CPA and Kyber-CCA hardware
// design spaces (Table I of the paper); the TEE uses the KEM to establish
// long-term-secure channels. This is a from-scratch implementation with the
// ML-KEM-512 parameter set (n=256, q=3329, k=2, eta1=3, eta2=2, du=10, dv=4)
// and the standard object sizes (ek 800 B, dk 1632 B, ct 768 B, ss 32 B).
// It follows the FIPS 203 structure (CPA PKE + Fujisaki-Okamoto transform
// with implicit rejection) and is self-consistent; it is NOT guaranteed to
// be bit-interoperable with FIPS 203 known-answer tests (see DESIGN.md
// substitution ledger).
#pragma once

#include <array>

#include "convolve/common/bytes.hpp"

namespace convolve::crypto::kyber {

inline constexpr int kN = 256;
inline constexpr int kQ = 3329;
inline constexpr int kK = 2;        // module rank (ML-KEM-512)
inline constexpr int kEta1 = 3;
inline constexpr int kEta2 = 2;
inline constexpr int kDu = 10;
inline constexpr int kDv = 4;

inline constexpr std::size_t kEkBytes = 384 * kK + 32;        // 800
inline constexpr std::size_t kDkBytes = 768 * kK + 96;        // 1632
inline constexpr std::size_t kCtBytes = 32 * (kDu * kK + kDv);  // 768
inline constexpr std::size_t kSsBytes = 32;

struct KeyPair {
  Bytes ek;  // encapsulation key
  Bytes dk;  // decapsulation key (includes ek, H(ek), implicit-rejection z)
};

struct Encapsulation {
  Bytes ciphertext;
  std::array<std::uint8_t, kSsBytes> shared_secret{};
};

/// Deterministic key generation from 64 bytes of seed material
/// (d || z in FIPS 203 terms).
KeyPair keygen(ByteView seed64);

/// Encapsulate against `ek` using 32 bytes of fresh randomness `m32`.
Encapsulation encaps(ByteView ek, ByteView m32);

/// Decapsulate; never fails — on tampered ciphertext it returns the
/// implicit-rejection secret, which will not match the encapsulator's.
std::array<std::uint8_t, kSsBytes> decaps(ByteView dk, ByteView ciphertext);

// --- CPA-level PKE, exposed for the HADES Kyber-CPA case study and tests ---

struct PkeKeyPair {
  Bytes pk;
  Bytes sk;
};

/// Compress_d(x) = round(2^d * x / q) mod 2^d for x in [0, q) and
/// 1 <= d <= 13, by multiply-shift instead of a division (x is secret in
/// encryption). Compress_1 is also the decryption decode: 1 exactly for
/// 833 <= x <= 2496.
std::int16_t compress(std::int16_t x, int d);

PkeKeyPair pke_keygen(ByteView d32);
Bytes pke_encrypt(ByteView pk, ByteView msg32, ByteView coins32);
Bytes pke_decrypt(ByteView sk, ByteView ciphertext);

}  // namespace convolve::crypto::kyber
