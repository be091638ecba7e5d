// Gate-level power-trace simulation over the masking Circuit IR.
//
// The empirical half of the leakage story: where src/analysis proves
// probing security symbolically, this module *measures* a netlist. Every
// gate is assigned to a sample group by its combinational depth (inputs,
// randoms and constants at depth 0; a gate one past its deepest fan-in),
// and one evaluation emits one power sample per depth group:
//
//   * capture / capture_block -- Hamming weight: sample[d] = sum of wire
//     values at depth d (registers settling from a precharged all-zero
//     state);
//   * capture_transition -- Hamming distance: sample[d] = sum of wire
//     toggles between two consecutive evaluations.
//
// Optional Gaussian noise is added per sample. All randomness (gadget
// randoms, noise) is drawn from a caller-provided Xoshiro256, so a trace
// is a pure function of (circuit, inputs, rng state) -- the property the
// deterministic parallel capture path builds on.
//
// capture() is the scalar reference oracle; capture_block and
// accumulate_block_sums are the 64-lane engine every campaign runs on, and
// must reproduce capture() bit for bit (tests/sca/test_bitslice_*.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "convolve/common/rng.hpp"
#include "convolve/masking/circuit.hpp"

namespace convolve::sca {

// One value: kept as a type because existing callers spell it out in
// TraceConfig{PowerModel::kHammingWeight, sigma}.
enum class PowerModel : std::uint8_t {
  kHammingWeight,  // value leakage (settle from precharge)
};

struct TraceConfig {
  PowerModel model = PowerModel::kHammingWeight;
  double noise_sigma = 0.0;  // Gaussian noise added to every sample
};

/// Reusable per-worker buffers so the hot capture loop is allocation-free.
struct TraceScratch {
  std::vector<std::uint8_t> inputs;
  std::vector<std::uint8_t> randoms;
  std::vector<std::uint8_t> wire;       // current evaluation
  std::vector<std::uint8_t> wire_prev;  // first evaluation of a transition
};

/// Per-worker buffers for the bitsliced block capture path: inputs,
/// randomness and wires are uint64_t bit planes (lane j of trace j in bit
/// j), and `counters` holds the vertical ripple-carry counter planes that
/// accumulate the per-depth-group Hamming weights of all 64 lanes at once.
struct BlockScratch {
  std::vector<std::uint64_t> inputs;
  std::vector<std::uint64_t> randoms;
  std::vector<std::uint64_t> wire;
  std::vector<std::uint64_t> counters;  // samples * counter_planes words
};

/// Memory layout of a capture_block output span of n_active * samples
/// doubles. Trace-major matches TraceBatch rows; sample-major puts each
/// sample's 64 lanes contiguous, which is what the vectorized TVLA
/// accumulators consume. The trace values are identical either way.
enum class BlockLayout : std::uint8_t {
  kTraceMajor,   // out[lane * samples + sample]
  kSampleMajor,  // out[sample * n_active + lane]
};

/// Packed exact power sums of one lane class at one sample point:
/// S1 = sum v, S3 = sum v^3 share one word, S2 = sum v^2, S4 = sum v^4 the
/// other. With counter values < 256 and at most ~320 traces per batch the
/// fields cannot carry into each other (S1 < 2^16, S2 < 2^24), which is
/// what lets the fold run on uint64 adds with no per-field bookkeeping.
struct PackedMoments {
  std::uint64_t s13 = 0;  // S1 in bits 0..15, S3 in bits 16..63
  std::uint64_t s24 = 0;  // S2 in bits 0..23, S4 in bits 24..63
};

/// Cross-block accumulator for accumulate_block_sums: one packed lane-count
/// word per (sample, nonempty counter-plane subset). Opaque to callers --
/// create with make_block_sums_accum, drain with finalize_block_sums.
struct BlockSumsAccum {
  std::vector<std::uint64_t> counts;  // samples * (2^planes - 1) words
};

/// Simulates power traces of one combinational circuit. The circuit must
/// outlive the simulator (it is held by reference).
class PowerTraceSimulator {
 public:
  /// Lanes per bitsliced capture block (traces evaluated per gate pass).
  static constexpr int kLanes = masking::kBitsliceLanes;

  PowerTraceSimulator(const masking::Circuit& circuit, TraceConfig config);

  /// One sample per combinational depth group.
  int samples_per_trace() const { return samples_; }
  const TraceConfig& config() const { return config_; }
  const masking::Circuit& circuit() const { return circuit_; }
  /// Depth group of gate g (for tests and pointwise diagnostics).
  int depth_of(int gate) const {
    return depth_[static_cast<std::size_t>(gate)];
  }

  TraceScratch make_scratch() const;

  /// Capture one trace: draw the circuit's fresh randomness from `rng`,
  /// evaluate on `inputs`, emit Hamming-weight samples plus noise into
  /// `out` (size samples_per_trace()).
  void capture(std::span<const std::uint8_t> inputs, Xoshiro256& rng,
               TraceScratch& scratch, std::span<double> out) const;

  /// Capture the transition `from` -> `to` under the Hamming-distance
  /// model: both evaluations draw fresh randomness from `rng`; sample[d]
  /// counts the wires of depth d that toggled.
  void capture_transition(std::span<const std::uint8_t> from,
                          std::span<const std::uint8_t> to, Xoshiro256& rng,
                          TraceScratch& scratch,
                          std::span<double> out) const;

  /// Vertical-counter planes per depth group: bit_width of the largest
  /// group's gate count (each group's Hamming sum fits in that many bits).
  int counter_planes() const { return counter_planes_; }

  BlockScratch make_block_scratch() const;

  /// Bitsliced capture of up to kLanes traces in one gate pass. The caller
  /// fills scratch.inputs with the input bit planes (trace j in bit j of
  /// every plane); lane j draws its gadget randomness and noise from
  /// rngs[j] in exactly the order capture() would, so row j of `out`
  /// (trace-major: out[j*samples_per_trace() + s]) is bit-identical to a
  /// scalar capture of the same assignment with the same rng. rngs.size()
  /// is the number of active lanes (1..kLanes); inactive tail lanes still
  /// flow through the gate pass but are never extracted, drawn for, or
  /// emitted -- tail blocks cost one pass like full ones. `out` must have
  /// size rngs.size() * samples_per_trace().
  void capture_block(std::span<Xoshiro256> rngs, BlockScratch& scratch,
                     std::span<double> out,
                     BlockLayout layout = BlockLayout::kTraceMajor) const;

  BlockSumsAccum make_block_sums_accum() const;

  /// Fastest noiseless statistics path: evaluate one block and fold its
  /// per-lane Hamming counts into `accum` WITHOUT ever leaving the
  /// bitsliced domain. The identity: counter bits are 0/1, so b^2 = b and
  /// sum v^m over a set of lanes is an integer-coefficient combination of
  /// popcount(AND of counter-plane subsets & lane_mask) -- 2^planes - 1
  /// subset popcounts replace 64 per-lane extractions. Per subset this
  /// accumulates two popcounts packed in one word: lanes in `class_mask`
  /// and all active lanes (tail lanes are masked off internally), so one
  /// call serves both TVLA classes. The coefficient multiplies are
  /// deferred to finalize_block_sums; the caller must finalize before the
  /// packed fields could overflow (<= ~320 traces per batch, the same
  /// bound PackedMoments needs). Throws when noise_sigma > 0 (noise only
  /// exists in the double domain) or counter_planes() > 8 (counts would
  /// overflow the packed fields).
  void accumulate_block_sums(std::span<Xoshiro256> rngs, BlockScratch& scratch,
                             std::uint64_t class_mask,
                             BlockSumsAccum& accum) const;

  /// Drain `accum`: write the exact packed power sums of the class_mask
  /// lanes to `in_class` and of the remaining active lanes to `out_class`
  /// (both size samples_per_trace()), then zero the accumulator. The sums
  /// equal a per-lane scalar fold exactly -- integer arithmetic throughout
  /// -- so the exact TVLA fold depends on the traces alone, never on how
  /// they were grouped into blocks.
  void finalize_block_sums(BlockSumsAccum& accum,
                           std::span<PackedMoments> in_class,
                           std::span<PackedMoments> out_class) const;

 private:
  void fill_randoms(Xoshiro256& rng, TraceScratch& scratch) const;
  void accumulate(std::span<const std::uint8_t> wire,
                  std::span<double> out) const;
  void add_noise(Xoshiro256& rng, std::span<double> out) const;
  void block_evaluate(std::span<Xoshiro256> rngs, BlockScratch& scratch,
                      std::size_t out_size) const;
  void extract_sample_bytes(const BlockScratch& scratch, int sample,
                            std::uint8_t* vals) const;
  void extract_sample_values(const BlockScratch& scratch, int sample,
                             std::uint32_t* vals) const;

  const masking::Circuit& circuit_;
  TraceConfig config_;
  std::vector<int> depth_;  // per-gate depth group
  int samples_ = 0;
  int counter_planes_ = 0;  // see counter_planes()
  // Gate indices stably sorted by depth group and the end offset of each
  // group: lets the block counter accumulation keep one group's counter
  // planes in registers instead of rippling through memory per gate.
  std::vector<int> gates_by_depth_;
  std::vector<int> group_end_;
  // Subset moment coefficients for the block-sums path, indexed by the
  // plane-subset mask m (1..2^planes - 1): sum v^k over a lane set equals
  // sum over subsets of coef_k(m) * popcount(AND of planes in m), with
  // coef pairs packed like PackedMoments (k=1|3 and k=2|4). Built once at
  // construction when counter_planes() <= 8.
  std::vector<std::uint64_t> k13_;
  std::vector<std::uint64_t> k24_;
};

}  // namespace convolve::sca
