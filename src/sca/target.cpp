#include "convolve/sca/target.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "convolve/common/capture.hpp"
#include "convolve/common/parallel.hpp"
#include "convolve/common/telemetry.hpp"

namespace convolve::sca {

#if CONVOLVE_TELEMETRY_ENABLED
namespace {
telemetry::Counter t_traces{"sca.traces_captured"};
telemetry::Counter t_samples{"sca.samples"};
// Lane utilization of the bitsliced path: blocks evaluated, lane slots
// those blocks provided (blocks * 64) and slots actually carrying a trace.
// active/slots < 1 only on tail blocks, so a healthy campaign sits at ~1.
telemetry::Counter t_lane_blocks{"sca.lane_blocks"};
telemetry::Counter t_lane_slots{"sca.lane_slots"};
telemetry::Counter t_lanes_active{"sca.lanes_active"};
}  // namespace
#endif

MaskedTraceTarget::MaskedTraceTarget(masking::MaskedCircuit masked,
                                     int plain_inputs, TraceConfig config,
                                     BitOrder bit_order)
    : masked_(std::move(masked)),
      plain_inputs_(plain_inputs),
      bit_order_(bit_order),
      simulator_(masked_.circuit, config) {
  if (plain_inputs <= 0 || plain_inputs > 32) {
    throw std::invalid_argument("MaskedTraceTarget: plain_inputs not in 1..32");
  }
  if (static_cast<std::size_t>(plain_inputs) !=
      masked_.input_share_base.size()) {
    throw std::invalid_argument(
        "MaskedTraceTarget: plain_inputs != masked input count");
  }
}

void MaskedTraceTarget::capture(std::uint32_t plain_value, Xoshiro256& rng,
                                TraceScratch& scratch,
                                std::span<double> out) const {
  const unsigned order = masked_.order;
  for (int i = 0; i < plain_inputs_; ++i) {
    const int pos =
        bit_order_ == BitOrder::kLsbFirst ? i : plain_inputs_ - 1 - i;
    std::uint8_t bit = static_cast<std::uint8_t>((plain_value >> pos) & 1u);
    const std::size_t base = static_cast<std::size_t>(
        masked_.input_share_base[static_cast<std::size_t>(i)]);
    // Fresh uniform sharing: the first `order` shares are random, the last
    // one completes the XOR to the plain bit.
    for (unsigned s = 0; s < order; ++s) {
      const std::uint8_t m = static_cast<std::uint8_t>(rng.next_bit());
      scratch.inputs[base + s] = m;
      bit ^= m;
    }
    scratch.inputs[base + order] = bit;
  }
  simulator_.capture(scratch.inputs, rng, scratch, out);
  // Counted per trace here and per block in the block paths below, so
  // sca.traces_captured covers the oracle and the 64-lane engine alike.
  // Two relaxed adds per trace are noise next to the gate-level simulation.
  CONVOLVE_TELEMETRY_ONLY(t_traces.add(1); t_samples.add(out.size());)
}

void MaskedTraceTarget::fill_input_planes(
    std::span<const std::uint32_t> plain_values, std::span<Xoshiro256> rngs,
    BlockScratch& scratch) const {
  if (plain_values.size() != rngs.size()) {
    throw std::invalid_argument("capture_block: values/rngs size mismatch");
  }
  const unsigned order = masked_.order;
  // Build the input bit planes, drawing lane j's sharing bits from rngs[j]
  // in the scalar capture() order (share s of input i before input i+1).
  std::fill(scratch.inputs.begin(), scratch.inputs.end(), 0ull);
  if (order == 0 && plain_inputs_ <= 8 &&
      plain_values.size() == static_cast<std::size_t>(PowerTraceSimulator::kLanes)) {
    // Unshared full block: the plane build is a pure 8x64 bit transpose.
    // Gather bit `pos` of 8 byte-narrowed values at once: mask it to the
    // byte LSBs, then one multiply packs those LSBs into 8 adjacent bits
    // (all partial products land on distinct bit positions, so no carry).
    std::uint8_t b[PowerTraceSimulator::kLanes];
    for (int j = 0; j < PowerTraceSimulator::kLanes; ++j) {
      b[j] = static_cast<std::uint8_t>(plain_values[static_cast<std::size_t>(j)]);
    }
    std::uint64_t w[8];
    std::memcpy(w, b, sizeof(w));
    for (int i = 0; i < plain_inputs_; ++i) {
      const int pos =
          bit_order_ == BitOrder::kLsbFirst ? i : plain_inputs_ - 1 - i;
      std::uint64_t plane = 0;
      for (int g = 0; g < 8; ++g) {
        const std::uint64_t t = (w[g] >> pos) & 0x0101010101010101ull;
        plane |= ((t * 0x0102040810204080ull) >> 56) << (8 * g);
      }
      scratch.inputs[static_cast<std::size_t>(
          masked_.input_share_base[static_cast<std::size_t>(i)])] = plane;
    }
    return;
  }
  for (std::size_t j = 0; j < plain_values.size(); ++j) {
    for (int i = 0; i < plain_inputs_; ++i) {
      const int pos =
          bit_order_ == BitOrder::kLsbFirst ? i : plain_inputs_ - 1 - i;
      std::uint64_t bit = (plain_values[j] >> pos) & 1u;
      const std::size_t base = static_cast<std::size_t>(
          masked_.input_share_base[static_cast<std::size_t>(i)]);
      for (unsigned s = 0; s < order; ++s) {
        const std::uint64_t m = rngs[j].next_bit();
        scratch.inputs[base + s] |= m << j;
        bit ^= m;
      }
      scratch.inputs[base + order] |= bit << j;
    }
  }
}

void MaskedTraceTarget::capture_block(
    std::span<const std::uint32_t> plain_values, std::span<Xoshiro256> rngs,
    BlockScratch& scratch, std::span<double> out, BlockLayout layout) const {
  const std::size_t n_active = plain_values.size();
  fill_input_planes(plain_values, rngs, scratch);
  simulator_.capture_block(rngs, scratch, out, layout);
  CONVOLVE_TELEMETRY_ONLY(
      t_traces.add(n_active); t_samples.add(out.size());
      t_lane_blocks.add(1);
      t_lane_slots.add(static_cast<std::uint64_t>(PowerTraceSimulator::kLanes));
      t_lanes_active.add(n_active);)
}

void MaskedTraceTarget::accumulate_block_sums(
    std::span<const std::uint32_t> plain_values, std::span<Xoshiro256> rngs,
    BlockScratch& scratch, std::uint64_t class_mask,
    BlockSumsAccum& accum) const {
  const std::size_t n_active = plain_values.size();
  fill_input_planes(plain_values, rngs, scratch);
  simulator_.accumulate_block_sums(rngs, scratch, class_mask, accum);
  CONVOLVE_TELEMETRY_ONLY(
      t_traces.add(n_active);
      t_samples.add(n_active * static_cast<std::uint64_t>(samples()));
      t_lane_blocks.add(1);
      t_lane_slots.add(static_cast<std::uint64_t>(PowerTraceSimulator::kLanes));
      t_lanes_active.add(n_active);)
}

std::vector<double> MaskedTraceTarget::capture_averaged(
    std::uint32_t plain_value, Xoshiro256& rng, TraceScratch& scratch,
    int repetitions) const {
  return capture::mean_trace_of(
      repetitions, samples(), [&](int, std::vector<double>& out) {
        capture(plain_value, rng, scratch, out);
      });
}

TraceBatch capture_batch(const MaskedTraceTarget& target,
                         std::uint64_t n_traces, const PlainValueFn& plain,
                         const Xoshiro256& base_rng) {
  CONVOLVE_TRACE_SPAN("sca.capture_batch");
  constexpr std::uint64_t kL =
      static_cast<std::uint64_t>(PowerTraceSimulator::kLanes);
  TraceBatch batch;
  batch.samples = target.samples();
  batch.n = n_traces;
  batch.data.assign(n_traces * static_cast<std::uint64_t>(batch.samples),
                    0.0);
  const std::uint64_t samples = static_cast<std::uint64_t>(batch.samples);

  // Shard over aligned 64-trace blocks. Row i depends only on
  // base_rng.split(i), so the batch is the same at any thread count.
  const std::uint64_t n_blocks = (n_traces + kL - 1) / kL;
  const std::uint64_t n_chunks = par::chunk_count(n_blocks, 4);
  par::for_each_chunk(n_chunks, [&](std::uint64_t c) {
    const par::Range r = par::chunk_range(n_blocks, n_chunks, c);
    BlockScratch scratch = target.make_block_scratch();
    std::array<Xoshiro256, kL> rngs;
    std::array<std::uint32_t, kL> values;
    for (std::uint64_t b = r.begin; b < r.end; ++b) {
      const std::uint64_t i0 = b * kL;
      const std::size_t n_act =
          static_cast<std::size_t>(std::min(kL, n_traces - i0));
      for (std::size_t j = 0; j < n_act; ++j) {
        rngs[j] = base_rng.split(i0 + j);
        values[j] = plain(i0 + j, rngs[j]);
      }
      target.capture_block({values.data(), n_act}, {rngs.data(), n_act},
                           scratch,
                           {batch.data.data() + i0 * samples,
                            n_act * static_cast<std::size_t>(samples)});
    }
  });
  return batch;
}

}  // namespace convolve::sca
