#include "convolve/sca/trace.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "convolve/common/parallel.hpp"
#include "convolve/sca/target.hpp"

namespace convolve::sca {
namespace {

using masking::Circuit;
using masking::GateKind;

TEST(PowerTrace, DepthGroupsFollowCombinationalDepth) {
  const Circuit fa = masking::full_adder_circuit();
  PowerTraceSimulator sim(fa, {});
  // Inputs sit at depth 0; every gate is one past its deepest fan-in.
  const auto& gates = fa.gates();
  for (std::size_t g = 0; g < gates.size(); ++g) {
    const int d = sim.depth_of(static_cast<int>(g));
    switch (gates[g].kind) {
      case GateKind::kInput:
      case GateKind::kRandom:
      case GateKind::kConst:
        EXPECT_EQ(d, 0);
        break;
      case GateKind::kNot:
      case GateKind::kReg:
        EXPECT_EQ(d, sim.depth_of(gates[g].a) + 1);
        break;
      default:
        EXPECT_EQ(d, std::max(sim.depth_of(gates[g].a),
                              sim.depth_of(gates[g].b)) +
                         1);
    }
    EXPECT_LT(d, sim.samples_per_trace());
  }
  EXPECT_GE(sim.samples_per_trace(), 2);
}

TEST(PowerTrace, HammingWeightSamplesMatchManualAccumulation) {
  const Circuit fa = masking::full_adder_circuit();
  PowerTraceSimulator sim(fa, {PowerModel::kHammingWeight, 0.0});
  TraceScratch scratch = sim.make_scratch();
  Xoshiro256 rng(1);
  const std::vector<std::uint8_t> inputs = {1, 0, 1};
  std::vector<double> trace(static_cast<std::size_t>(sim.samples_per_trace()));
  sim.capture(inputs, rng, scratch, trace);

  const std::vector<std::uint8_t> wire = fa.evaluate_all(inputs, {});
  std::vector<double> expected(trace.size(), 0.0);
  for (std::size_t g = 0; g < wire.size(); ++g) {
    expected[static_cast<std::size_t>(sim.depth_of(static_cast<int>(g)))] +=
        wire[g];
  }
  EXPECT_EQ(trace, expected);
}

TEST(PowerTrace, SeededCaptureIsReproducible) {
  auto masked = masking::mask_circuit(masking::full_adder_circuit(), 1);
  PowerTraceSimulator sim(masked.circuit, {PowerModel::kHammingWeight, 0.5});
  TraceScratch scratch = sim.make_scratch();
  const std::vector<std::uint8_t> inputs(
      static_cast<std::size_t>(masked.circuit.num_inputs()), 1);
  std::vector<double> a(static_cast<std::size_t>(sim.samples_per_trace()));
  std::vector<double> b(a.size());
  Xoshiro256 rng_a(42), rng_b(42), rng_c(43);
  sim.capture(inputs, rng_a, scratch, a);
  sim.capture(inputs, rng_b, scratch, b);
  EXPECT_EQ(a, b);  // bit-identical: same seed, same trace
  sim.capture(inputs, rng_c, scratch, b);
  EXPECT_NE(a, b);  // fresh noise / gadget randomness
}

TEST(PowerTrace, TransitionModelCountsToggles) {
  const Circuit fa = masking::full_adder_circuit();
  PowerTraceSimulator sim(fa, {});  // capture_transition ignores the model
  TraceScratch scratch = sim.make_scratch();
  Xoshiro256 rng(7);
  const std::vector<std::uint8_t> zeros = {0, 0, 0};
  const std::vector<std::uint8_t> ones = {1, 1, 1};
  std::vector<double> trace(static_cast<std::size_t>(sim.samples_per_trace()));

  // No randomness in the plain adder: identical inputs, zero toggles.
  sim.capture_transition(ones, ones, rng, scratch, trace);
  for (double s : trace) EXPECT_EQ(s, 0.0);

  // 0 -> 1 on every input flips at least the three input wires.
  sim.capture_transition(zeros, ones, rng, scratch, trace);
  EXPECT_EQ(trace[0], 3.0);
  double total = 0.0;
  for (double s : trace) total += s;
  EXPECT_GT(total, 3.0);
}

TEST(PowerTrace, OrderZeroAveragedEqualsSingleCapture) {
  auto masked = masking::mask_circuit(masking::full_adder_circuit(), 0);
  MaskedTraceTarget target(std::move(masked), 3,
                           {PowerModel::kHammingWeight, 0.0});
  TraceScratch scratch = target.make_scratch();
  Xoshiro256 rng(9);
  std::vector<double> one(static_cast<std::size_t>(target.samples()));
  target.capture(0b101, rng, scratch, one);
  // Order 0, no noise: every repetition is identical, so the mean is too.
  const std::vector<double> avg = target.capture_averaged(0b101, rng, scratch, 8);
  EXPECT_EQ(one, avg);
}

TEST(PowerTrace, BatchCaptureBitIdenticalAcrossThreadCounts) {
  auto masked = masking::mask_circuit(masking::full_adder_circuit(), 1);
  MaskedTraceTarget target(std::move(masked), 3,
                           {PowerModel::kHammingWeight, 1.0});
  const Xoshiro256 base(0xBA7C4);
  const auto plain = [](std::uint64_t, Xoshiro256& rng) {
    return static_cast<std::uint32_t>(rng.next_u64() & 7);
  };

  TraceBatch reference;
  {
    par::ScopedThreadCount one(1);
    reference = capture_batch(target, 1000, plain, base);
  }
  EXPECT_EQ(reference.n, 1000u);
  EXPECT_EQ(reference.samples, target.samples());
  for (int threads : {2, 4, 7}) {
    par::ScopedThreadCount scope(threads);
    const TraceBatch batch = capture_batch(target, 1000, plain, base);
    EXPECT_EQ(batch.data, reference.data) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace convolve::sca
