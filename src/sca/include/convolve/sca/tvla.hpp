// TVLA leakage assessment: fixed-vs-random Welch t-test at first and
// second statistical order.
//
// The standard evaluation-lab methodology (Goodwill et al.; Schneider &
// Moradi): capture interleaved traces of a *fixed* plain input and of
// uniformly *random* plain inputs (fresh masking randomness for both
// classes every trace), then per sample point compute
//
//   first order  -- Welch t between the class means;
//   second order -- Welch t between the centered squares (x - mean)^2,
//                   computed from one-pass central moments,
//
// and flag leakage when max |t| over the trace exceeds 4.5. Traces are
// captured on the 64-lane engine; noiseless targets fold exact integer
// power sums straight from the counter planes, noisy ones fold 64-trace
// double blocks. Welford accumulators are sharded through src/common/
// parallel and merged in rank order, so every verdict and every point of
// the max-|t|-vs-traces curve is bit-identical for any --threads N. The
// statistics equal a per-trace Welford::add fold of the oracle traces
// (MaskedTraceTarget::capture) up to rounding.
#pragma once

#include <cstdint>
#include <vector>

#include "convolve/common/stats.hpp"
#include "convolve/sca/target.hpp"

namespace convolve::sca {

struct TvlaConfig {
  double threshold = 4.5;
  std::uint64_t seed = 0x7E57ED;
  /// Total-trace counts (both classes combined, ascending) at which the
  /// max-|t| curve is recorded; auto-generated geometrically when empty.
  std::vector<int> checkpoints;
  /// Traces per parallel chunk. A multiple of 64 keeps the bitsliced
  /// blocks inside a chunk full (only one tail block per chunk).
  std::uint64_t grain = 256;
};

struct TvlaCheckpoint {
  int traces = 0;  // total traces captured so far (both classes)
  double max_abs_t1 = 0.0;
  double max_abs_t2 = 0.0;
};

struct TvlaReport {
  int samples = 0;
  double threshold = 4.5;
  /// max-|t| vs trace count, one entry per checkpoint (last = full run).
  std::vector<TvlaCheckpoint> curve;
  /// Per-sample t statistics at the full trace count.
  std::vector<double> t1;
  std::vector<double> t2;
  double max_abs_t1 = 0.0;
  double max_abs_t2 = 0.0;
  bool first_order_leak = false;   // max |t1| > threshold at the full count
  bool second_order_leak = false;  // max |t2| > threshold at the full count
  /// First checkpoint whose max |t| crossed the threshold; -1 = never.
  int traces_to_first_order_fail = -1;
  int traces_to_second_order_fail = -1;
};

/// Fixed-vs-random TVLA on a masked target. Trace index i belongs to the
/// fixed class iff i is even; everything trace i consumes derives from
/// rng = seed-split(i): a random-class trace first draws its plain value as
/// static_cast<uint32_t>(rng.next_u64()) masked to plain_inputs() bits,
/// then captures from the same stream. The report is deterministic at any
/// thread count.
TvlaReport tvla_fixed_vs_random(const MaskedTraceTarget& target,
                                std::uint32_t fixed_value, int n_traces,
                                const TvlaConfig& config = {});

}  // namespace convolve::sca
