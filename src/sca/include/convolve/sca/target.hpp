// A masked netlist as a device under side-channel test.
//
// MaskedTraceTarget wraps a MaskedCircuit (as produced by mask_circuit or
// hpc2_and_gadget) and presents the *unmasked* interface an evaluation lab
// sees: feed it a plain input value, it draws a fresh uniform sharing of
// every input bit plus the gadget randomness, evaluates the netlist and
// emits one power trace. At order 0 the sharing is trivial and the target
// degenerates to the unprotected implementation.
//
// capture() is the per-trace reference oracle; capture_block, and
// capture_batch built on it, are the 64-lane engine. capture_batch shards
// acquisition through src/common/parallel with one derived RNG stream per
// trace index (Xoshiro256::split), so a batch is bit-identical for every
// --threads N and equal to a capture() loop over the same streams.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "convolve/common/rng.hpp"
#include "convolve/sca/trace.hpp"

namespace convolve::sca {

/// How plain-value bit j maps to plain input i of the circuit.
enum class BitOrder : std::uint8_t {
  kLsbFirst,  // input i carries bit i (natural for adders, DOM-AND a/b)
  kMsbFirst,  // input i carries bit (n-1-i) (the AES S-box convention)
};

class MaskedTraceTarget {
 public:
  /// `plain_inputs` is the number of original unmasked inputs of the
  /// circuit that was masked (each maps to order+1 shares).
  MaskedTraceTarget(masking::MaskedCircuit masked, int plain_inputs,
                    TraceConfig config,
                    BitOrder bit_order = BitOrder::kLsbFirst);

  MaskedTraceTarget(const MaskedTraceTarget&) = delete;
  MaskedTraceTarget& operator=(const MaskedTraceTarget&) = delete;

  int samples() const { return simulator_.samples_per_trace(); }
  unsigned masking_order() const { return masked_.order; }
  int plain_inputs() const { return plain_inputs_; }
  const PowerTraceSimulator& simulator() const { return simulator_; }

  TraceScratch make_scratch() const { return simulator_.make_scratch(); }

  /// Capture one trace of the masked evaluation of `plain_value`: sharing
  /// randomness, gadget randomness and noise are all drawn from `rng` in a
  /// fixed order.
  void capture(std::uint32_t plain_value, Xoshiro256& rng,
               TraceScratch& scratch, std::span<double> out) const;

  BlockScratch make_block_scratch() const {
    return simulator_.make_block_scratch();
  }

  /// Bitsliced capture of up to PowerTraceSimulator::kLanes traces in one
  /// gate pass: trace j evaluates plain_values[j], drawing its sharing
  /// randomness, gadget randomness and noise from rngs[j] in exactly the
  /// order capture() would -- trace j of `out` is bit-identical to a
  /// scalar capture of the same value with the same rng state, laid out
  /// per `layout` (trace-major rows by default; sample-major columns for
  /// the vectorized statistics folds). plain_values.size() == rngs.size()
  /// is the active lane count (1..kLanes; short tail blocks are fine).
  void capture_block(std::span<const std::uint32_t> plain_values,
                     std::span<Xoshiro256> rngs, BlockScratch& scratch,
                     std::span<double> out,
                     BlockLayout layout = BlockLayout::kTraceMajor) const;

  BlockSumsAccum make_block_sums_accum() const {
    return simulator_.make_block_sums_accum();
  }

  /// Noiseless moment accumulation that never leaves the bitsliced domain
  /// (see PowerTraceSimulator::accumulate_block_sums): evaluates one block
  /// of plain values and folds the per-lane Hamming counts of the
  /// class_mask lanes and of all active lanes into `accum` via subset
  /// popcounts. Drain with finalize_block_sums.
  void accumulate_block_sums(std::span<const std::uint32_t> plain_values,
                             std::span<Xoshiro256> rngs, BlockScratch& scratch,
                             std::uint64_t class_mask,
                             BlockSumsAccum& accum) const;

  void finalize_block_sums(BlockSumsAccum& accum,
                           std::span<PackedMoments> in_class,
                           std::span<PackedMoments> out_class) const {
    simulator_.finalize_block_sums(accum, in_class, out_class);
  }

  /// Noise-suppressed measurement: the element-wise mean of `repetitions`
  /// captures of the same plain value (fresh sharing per repetition),
  /// routed through the shared capture::mean_trace_of path.
  std::vector<double> capture_averaged(std::uint32_t plain_value,
                                       Xoshiro256& rng, TraceScratch& scratch,
                                       int repetitions) const;

 private:
  void fill_input_planes(std::span<const std::uint32_t> plain_values,
                         std::span<Xoshiro256> rngs,
                         BlockScratch& scratch) const;

  masking::MaskedCircuit masked_;
  int plain_inputs_;
  BitOrder bit_order_;
  PowerTraceSimulator simulator_;  // references masked_.circuit
};

/// Row-major trace matrix: n traces x samples.
struct TraceBatch {
  int samples = 0;
  std::uint64_t n = 0;
  std::vector<double> data;

  std::span<const double> row(std::uint64_t i) const {
    return {data.data() + i * static_cast<std::uint64_t>(samples),
            static_cast<std::size_t>(samples)};
  }
};

/// Plain value of trace `index`; may consume `rng` (already split per
/// trace) to draw random inputs.
using PlainValueFn =
    std::function<std::uint32_t(std::uint64_t index, Xoshiro256& rng)>;

/// Deterministic parallel batch capture on the 64-lane engine: aligned
/// 64-trace blocks, one gate pass each. Row i equals
///   rng = base_rng.split(i); target.capture(plain(i, rng), rng, ...)
/// bit for bit, so the batch depends only on (target, n_traces, plain,
/// base_rng) -- never the thread count.
TraceBatch capture_batch(const MaskedTraceTarget& target,
                         std::uint64_t n_traces, const PlainValueFn& plain,
                         const Xoshiro256& base_rng);

}  // namespace convolve::sca
