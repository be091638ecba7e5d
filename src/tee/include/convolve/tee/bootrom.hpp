// Measured boot: the bootrom model of the paper's PQ-enabled Keystone.
//
// At power-on the bootrom (1) measures the security-monitor image in DRAM
// with SHA3-512, (2) signs the measurement with the per-device keys, and
// (3) derives the SM's own key material from the device keys, so the SM
// never holds the device secrets. Following the paper, the ML-DSA device
// key is stored as a 32-byte seed and regenerated at boot to keep the
// bootrom small ("we mitigate this by storing the ML-DSA key as 32-byte
// seed, and deterministically regenerate the key during boot").
//
// The bootrom size accounting reproduces Table III: the classical bootrom
// models 50.7 KB; adding the ML-DSA signing code (~9.4 KB), the seed and
// hybrid glue raises it to 60.2 KB.
#pragma once

#include <array>

#include "convolve/common/bytes.hpp"
#include "convolve/crypto/dilithium.hpp"
#include "convolve/crypto/ed25519.hpp"

namespace convolve::tee {

struct BootromConfig {
  bool pq_enabled = false;  // hybrid Ed25519 + ML-DSA-44 when true
};

/// Per-device root-of-trust secrets (programmed once at manufacturing).
struct DeviceKeys {
  std::array<std::uint8_t, 32> ed25519_seed{};
  std::array<std::uint8_t, 32> mldsa_seed{};  // stored as seed (paper)

  static DeviceKeys from_entropy(ByteView entropy32);
};

/// Everything the bootrom hands to the security monitor.
struct BootRecord {
  bool pq_enabled = false;
  Bytes sm_measurement;  // SHA3-512 of the SM image

  // Public halves of the device identity (the verifier's trust anchors).
  std::array<std::uint8_t, 32> device_ed25519_pk{};
  Bytes device_mldsa_pk;  // empty when !pq_enabled

  // SM keys, derived from device keys and the measurement: a tampered SM
  // image yields different keys, so its attestations will not verify
  // against certificates for the genuine SM.
  crypto::Ed25519KeyPair sm_ed25519;
  crypto::dilithium::KeyPair sm_mldsa;  // empty when !pq_enabled

  // Device signatures over (measurement || SM public keys).
  std::array<std::uint8_t, 64> device_sig_ed25519{};
  Bytes device_sig_mldsa;  // empty when !pq_enabled

  // Root secret for the sealing-key hierarchy (derived from BOTH device
  // secrets in PQ mode, per the paper's hybrid sealing-key derivation).
  Bytes sealing_root;
};

class Bootrom {
 public:
  Bootrom(const BootromConfig& config, const DeviceKeys& keys);

  /// Measure + sign + derive. `sm_image` is the SM binary as found in DRAM.
  BootRecord boot(ByteView sm_image) const;

  /// Modeled on-chip ROM footprint in bytes (Table III row 1).
  std::size_t size_bytes() const;

  /// Verifier-side check of the boot signature chain.
  static bool verify_boot_record(const BootRecord& record);

  // Size model components (bytes), documented for the bench output.
  static constexpr std::size_t kBaseBootCode = 27400;
  static constexpr std::size_t kSha3Code = 6800;
  static constexpr std::size_t kEd25519Code = 16200;
  static constexpr std::size_t kKeyManifest = 300;
  static constexpr std::size_t kMlDsaCode = 9404;
  static constexpr std::size_t kMlDsaSeed = 32;
  static constexpr std::size_t kHybridGlue = 64;

 private:
  BootromConfig config_;
  DeviceKeys keys_;
};

}  // namespace convolve::tee
