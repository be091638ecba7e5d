// Correlation power analysis against the AES S-box.
//
// The classic first-round DPA-contest setting: the device computes
// S(p ^ k) for known uniformly random plaintext bytes p and a secret key
// byte k; the attacker correlates the measured trace against the
// Hamming-weight hypothesis HW(S(p ^ key_guess)) for all 256 guesses and
// ranks them by max |rho| over the sample points. Reported metrics follow
// the evaluation-lab convention: guess rank vs trace count, and the first
// trace count at which the correct key reaches rank 0.
//
// Against a masked target the per-sample means are secret-independent, so
// first-order CPA collapses: the correct key's rank stays large -- that
// contrast (measured, not asserted) is the empirical masking-order
// transition the paper's security story rests on.
#pragma once

#include <cstdint>
#include <vector>

#include "convolve/sca/target.hpp"

namespace convolve::sca {

struct CpaConfig {
  std::uint64_t seed = 0xC0FFEE;
  /// Trace counts (ascending) at which the key ranking is recorded;
  /// auto-generated geometrically when empty.
  std::vector<int> checkpoints;
  /// Traces per parallel chunk (multiple of 64 keeps bitsliced blocks
  /// full).
  std::uint64_t grain = 256;
};

struct CpaCheckpoint {
  int traces = 0;
  int rank = 255;            // rank of the true key (0 = best guess)
  double best_corr = 0.0;    // max |rho| over all guesses and samples
  double true_key_corr = 0.0;
};

struct CpaReport {
  int samples = 0;
  std::uint8_t true_key = 0;
  std::uint8_t recovered_key = 0;  // argmax guess at the full trace count
  int rank = 255;                  // rank of the true key at the full count
  /// First checkpoint at which the true key ranked 0; -1 = never.
  int traces_to_rank0 = -1;
  std::vector<CpaCheckpoint> curve;
  /// max |rho| over samples per key guess at the full trace count.
  std::vector<double> correlation;
};

/// Run the CPA attack on the 64-lane engine: trace i draws its plaintext p
/// as the low byte of the first next_u64() of seed-split(i), then the
/// target captures S-box input p ^ key from that same stream (MSB-first
/// bit mapping as in analysis::aes_sbox_circuit). The Pearson sums fold
/// per trace in ascending index order within a chunk and merge chunks in
/// order, so the report is deterministic at any thread count.
CpaReport cpa_sbox_attack(const MaskedTraceTarget& target, std::uint8_t key,
                          int n_traces, const CpaConfig& config = {});

}  // namespace convolve::sca
