// Directed edge cases of the 64-lane engine against the per-trace oracle
// (tests/sca/oracle.hpp): campaign sizes that straddle the 64-lane block
// width, degenerate netlists (inputs only, one gate), tail-lane masking in
// the packed accumulators, and counter-plane counts that force every
// fallback path (register CSA <= 4 planes, ripple 5..8, exact fold
// disabled > 8).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "convolve/common/rng.hpp"
#include "convolve/masking/circuit.hpp"
#include "convolve/sca/target.hpp"
#include "convolve/sca/tvla.hpp"
#include "oracle.hpp"

namespace convolve::sca {
namespace {

constexpr std::uint64_t kL =
    static_cast<std::uint64_t>(PowerTraceSimulator::kLanes);

MaskedTraceTarget wrap(masking::Circuit plain, unsigned order, double sigma,
                       int n_inputs) {
  auto masked = masking::mask_circuit(plain, order);
  return MaskedTraceTarget(std::move(masked), n_inputs,
                           {PowerModel::kHammingWeight, sigma});
}

/// Inputs only -- every wire is at depth 0, one sample per trace.
masking::Circuit inputs_only_circuit(int n) {
  masking::Circuit c;
  int last = 0;
  for (int i = 0; i < n; ++i) last = c.add_input();
  c.mark_output(last);
  return c;
}

/// `width` XOR gates all in one depth group: counter_planes ==
/// bit_width(width), the knob that selects the counter and fold paths.
masking::Circuit wide_group_circuit(int width) {
  masking::Circuit c;
  const int a = c.add_input();
  const int b = c.add_input();
  for (int i = 0; i < width; ++i) c.mark_output(c.add_xor(a, b));
  return c;
}

PlainValueFn mix_fn(std::uint32_t mask) {
  return [mask](std::uint64_t i, Xoshiro256& r) {
    return (static_cast<std::uint32_t>(r.next_u64()) +
            static_cast<std::uint32_t>(i)) &
           mask;
  };
}

void expect_lanes_agree(const MaskedTraceTarget& target, std::uint64_t n,
                        std::uint32_t mask) {
  oracle::expect_batch_matches(target, n, mix_fn(mask), Xoshiro256(0xED6E ^ n),
                               "n=" + std::to_string(n));
}

TEST(BitsliceSmoke, TraceCountsAroundTheBlockWidth) {
  const auto target = wrap(masking::toy_sbox_circuit(), 1, 0.0, 4);
  for (std::uint64_t n : {1ull, 63ull, 64ull, 65ull, 127ull}) {
    expect_lanes_agree(target, n, 0xF);
  }
}

TEST(BitsliceLanes, InputsOnlyCircuitHasOneSampleAndAgrees) {
  const auto target = wrap(inputs_only_circuit(5), 0, 0.0, 5);
  EXPECT_EQ(target.samples(), 1);
  for (std::uint64_t n : {1ull, 64ull, 65ull}) {
    expect_lanes_agree(target, n, 0x1F);
  }
}

TEST(BitsliceLanes, SingleGateCircuitAgreesAtEveryOrder) {
  for (unsigned order : {0u, 1u, 2u}) {
    const auto target = wrap(masking::single_and_circuit(), order, 0.0, 2);
    expect_lanes_agree(target, 127, 0x3);
  }
}

TEST(BitsliceLanes, NoisyTailBlocksAgree) {
  // sigma > 0 exercises the per-lane noise draws on short tail blocks.
  const auto target = wrap(masking::full_adder_circuit(), 1, 0.9, 3);
  for (std::uint64_t n : {1ull, 63ull, 65ull, 130ull}) {
    expect_lanes_agree(target, n, 0x7);
  }
}

TEST(BitsliceLanes, RippleCounterFallbackAgrees) {
  // 40 gates in one depth group -> 6 counter planes: past the 4-plane
  // register-CSA limit, still within the exact fold's 8.
  const auto target = wrap(wide_group_circuit(40), 0, 0.0, 2);
  EXPECT_EQ(target.simulator().counter_planes(), 6);
  expect_lanes_agree(target, 200, 0x3);
  oracle::expect_tvla_matches(target, 1, 500, {}, "6 planes");
}

TEST(BitsliceLanes, WideGroupBeyondExactFoldStillAgrees) {
  // 300 gates in one group -> 9 counter planes: the exact integer fold is
  // off (counts would overflow its packed fields), TVLA takes the double
  // path, and it must still match the oracle.
  const auto target = wrap(wide_group_circuit(300), 0, 0.0, 2);
  EXPECT_GT(target.simulator().counter_planes(), 8);
  expect_lanes_agree(target, 100, 0x3);
  oracle::expect_tvla_matches(target, 1, 420, {}, "9 planes");
}

TEST(BitsliceLanes, SampleMajorLayoutIsATranspose) {
  const auto target = wrap(masking::toy_sbox_circuit(), 0, 0.0, 4);
  const std::size_t n_act = 37;  // partial block on purpose
  const std::size_t samples = static_cast<std::size_t>(target.samples());
  const Xoshiro256 base(0x11AA);
  std::array<Xoshiro256, 64> rngs;
  std::array<std::uint32_t, 64> values;
  for (std::size_t j = 0; j < n_act; ++j) {
    rngs[j] = base.split(j);
    values[j] = static_cast<std::uint32_t>(rngs[j].next_u64() & 0xF);
  }
  auto fresh_rngs = [&] {
    std::array<Xoshiro256, 64> r;
    for (std::size_t j = 0; j < n_act; ++j) {
      r[j] = base.split(j);
      (void)r[j].next_u64();  // re-consume the value draw
    }
    return r;
  };
  BlockScratch scratch = target.make_block_scratch();
  std::vector<double> tmajor(n_act * samples), smajor(n_act * samples);
  auto r1 = fresh_rngs();
  target.capture_block({values.data(), n_act}, {r1.data(), n_act}, scratch,
                       tmajor, BlockLayout::kTraceMajor);
  auto r2 = fresh_rngs();
  target.capture_block({values.data(), n_act}, {r2.data(), n_act}, scratch,
                       smajor, BlockLayout::kSampleMajor);
  for (std::size_t j = 0; j < n_act; ++j) {
    for (std::size_t s = 0; s < samples; ++s) {
      EXPECT_EQ(tmajor[j * samples + s], smajor[s * n_act + j]);
    }
  }
}

TEST(BitsliceLanes, BlockSumsMatchPerLaneFoldWithTailMasking) {
  // The subset-popcount accumulator against brute force: fold two partial
  // blocks (37 then 22 active lanes, odd class masks) into one accumulator
  // and check the finalized packed sums against per-lane integer sums of
  // the same traces captured through capture_block. Tail lanes beyond
  // n_act must not contaminate either class.
  const auto target = wrap(masking::toy_sbox_circuit(), 1, 0.0, 4);
  const std::size_t samples = static_cast<std::size_t>(target.samples());
  const Xoshiro256 base(0x33CC);
  const std::size_t acts[2] = {37, 22};
  const std::uint64_t class_masks[2] = {0x5555555555555555ull & ((1ull << 37) - 1),
                                        0x0F0F0F0F0F0F0F0Full & ((1ull << 22) - 1)};

  BlockScratch scratch = target.make_block_scratch();
  BlockSumsAccum accum = target.make_block_sums_accum();
  // Reference sums, accumulated per lane from capture_block doubles.
  std::vector<std::uint64_t> in_s(4 * samples), out_s(4 * samples);

  for (int blk = 0; blk < 2; ++blk) {
    const std::size_t n_act = acts[blk];
    const std::uint64_t cmask = class_masks[blk];
    std::array<Xoshiro256, 64> rngs;
    std::array<std::uint32_t, 64> values;
    for (std::size_t j = 0; j < n_act; ++j) {
      rngs[j] = base.split(static_cast<std::uint64_t>(blk) * kL + j);
      values[j] = static_cast<std::uint32_t>(rngs[j].next_u64() & 0xF);
    }
    {
      auto r = rngs;
      target.accumulate_block_sums({values.data(), n_act}, {r.data(), n_act},
                                   scratch, cmask, accum);
    }
    std::vector<double> traces(n_act * samples);
    {
      auto r = rngs;
      target.capture_block({values.data(), n_act}, {r.data(), n_act}, scratch,
                           traces, BlockLayout::kSampleMajor);
    }
    for (std::size_t s = 0; s < samples; ++s) {
      for (std::size_t j = 0; j < n_act; ++j) {
        const std::uint64_t v =
            static_cast<std::uint64_t>(traces[s * n_act + j]);
        auto* sums = ((cmask >> j) & 1) ? in_s.data() : out_s.data();
        std::uint64_t p = 1;
        for (int m = 0; m < 4; ++m) {
          p *= v;
          sums[s * 4 + static_cast<std::size_t>(m)] += p;
        }
      }
    }
  }

  std::vector<PackedMoments> in_pm(samples), out_pm(samples);
  target.finalize_block_sums(accum, in_pm, out_pm);
  for (std::size_t s = 0; s < samples; ++s) {
    const std::uint64_t* exp_in = in_s.data() + s * 4;
    const std::uint64_t* exp_out = out_s.data() + s * 4;
    EXPECT_EQ(in_pm[s].s13 & 0xFFFF, exp_in[0]) << "S1 in, s=" << s;
    EXPECT_EQ(in_pm[s].s24 & 0xFFFFFF, exp_in[1]) << "S2 in, s=" << s;
    EXPECT_EQ(in_pm[s].s13 >> 16, exp_in[2]) << "S3 in, s=" << s;
    EXPECT_EQ(in_pm[s].s24 >> 24, exp_in[3]) << "S4 in, s=" << s;
    EXPECT_EQ(out_pm[s].s13 & 0xFFFF, exp_out[0]) << "S1 out, s=" << s;
    EXPECT_EQ(out_pm[s].s24 & 0xFFFFFF, exp_out[1]) << "S2 out, s=" << s;
    EXPECT_EQ(out_pm[s].s13 >> 16, exp_out[2]) << "S3 out, s=" << s;
    EXPECT_EQ(out_pm[s].s24 >> 24, exp_out[3]) << "S4 out, s=" << s;
  }
  // finalize_block_sums zeroes the accumulator: a second drain is empty.
  std::vector<PackedMoments> in2(samples), out2(samples);
  target.finalize_block_sums(accum, in2, out2);
  for (std::size_t s = 0; s < samples; ++s) {
    EXPECT_EQ(in2[s].s13, 0u);
    EXPECT_EQ(in2[s].s24, 0u);
    EXPECT_EQ(out2[s].s13, 0u);
    EXPECT_EQ(out2[s].s24, 0u);
  }
}

TEST(BitsliceLanes, TvlaTailChunksAgreeAtOddGrain) {
  // grain=96 (not a multiple of 64) forces partial blocks inside interior
  // chunks, not just at the campaign tail.
  const auto target = wrap(masking::toy_sbox_circuit(), 0, 0.0, 4);
  TvlaConfig cfg;
  cfg.grain = 96;
  oracle::expect_tvla_matches(target, 5, 1000, cfg, "grain 96");
}

}  // namespace
}  // namespace convolve::sca
