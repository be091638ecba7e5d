// Property-test harness for the bitsliced capture engine: the scalar
// (lanes=1) path is the differential oracle, and randomized circuits x
// secrets x noise seeds must agree with the 64-lane engine bit-for-bit --
// raw trace batches, TVLA statistics (every checkpoint of the curve) and
// CPA correlations alike, at every thread count.
//
// Case budget (a "case" is one random circuit/secret/seed triple pushed
// through both engines): 640 capture + 320 TVLA + 48 thread-sweep + 8 CPA
// + 32 smoke = 1048 randomized cases per run, on top of the directed
// edge-case suite in test_bitslice_lanes.cpp.
//
// The BitsliceSmoke-prefixed tests are a seconds-fast subset registered
// under the `sca_fast` ctest label (`ctest -L sca_fast`); the Bitslice
// tests are the full harness.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "convolve/analysis/aes_sbox.hpp"
#include "convolve/common/parallel.hpp"
#include "convolve/common/rng.hpp"
#include "convolve/sca/cpa.hpp"
#include "convolve/sca/target.hpp"
#include "convolve/sca/tvla.hpp"

namespace convolve::sca {
namespace {

// Random plain netlist: a topological DAG of XOR/AND/NOT/REG/CONST gates
// over n_inputs primary inputs. Every gate picks earlier wires uniformly,
// so depth-group shapes (and thus counter-plane counts) vary across cases.
masking::Circuit random_plain_circuit(Xoshiro256& rng, int n_inputs,
                                      int n_body) {
  masking::Circuit c;
  std::vector<int> wires;
  for (int i = 0; i < n_inputs; ++i) wires.push_back(c.add_input());
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  for (int g = 0; g < n_body; ++g) {
    const int a = wires[pick(wires.size())];
    const int b = wires[pick(wires.size())];
    switch (rng.next_u64() % 8) {
      case 0:
      case 1:
      case 2:
        wires.push_back(c.add_xor(a, b));
        break;
      case 3:
      case 4:
        wires.push_back(c.add_and(a, b));
        break;
      case 5:
        wires.push_back(c.add_not(a));
        break;
      case 6:
        wires.push_back(c.add_reg(a));
        break;
      default:
        wires.push_back(c.add_const(static_cast<int>(rng.next_u64() & 1)));
        break;
    }
  }
  c.mark_output(wires.back());
  return c;
}

struct Case {
  int n_inputs;
  unsigned order;
  double sigma;
  MaskedTraceTarget target;
};

// One random device under test: random netlist, random masking order
// (0..2), random bit order, noise on or off. Drawn entirely from `rng` so
// the sweep seed enumerates the case space.
Case random_case(Xoshiro256& rng) {
  const int n_inputs = 1 + static_cast<int>(rng.next_u64() % 10);
  const int n_body = 4 + static_cast<int>(rng.next_u64() % 44);
  const unsigned order = static_cast<unsigned>(rng.next_u64() % 3);
  const double sigma = (rng.next_u64() & 1) ? 0.0 : 0.7;
  const BitOrder bits =
      (rng.next_u64() & 1) ? BitOrder::kLsbFirst : BitOrder::kMsbFirst;
  auto masked = masking::mask_circuit(random_plain_circuit(rng, n_inputs,
                                                           n_body),
                                      order);
  return Case{n_inputs, order, sigma,
              MaskedTraceTarget(std::move(masked), n_inputs,
                                {PowerModel::kHammingWeight, sigma}, bits)};
}

// Random plain-value function mixing a per-case secret into rng-drawn
// values, so both engines must agree on data-dependent inputs too.
PlainValueFn random_plain_fn(std::uint32_t secret, int n_inputs) {
  const std::uint32_t mask =
      n_inputs >= 32 ? 0xFFFFFFFFu : ((1u << n_inputs) - 1u);
  return [secret, mask](std::uint64_t, Xoshiro256& r) {
    return (static_cast<std::uint32_t>(r.next_u64()) ^ secret) & mask;
  };
}

// One capture differential: batch the same campaign through the 64-lane
// engine and the scalar oracle; the double buffers must be bit-identical
// (operator== on the vectors -- no tolerance).
void expect_batch_identical(const Case& c, std::uint64_t n_traces,
                            std::uint64_t seed) {
  const std::uint32_t secret = static_cast<std::uint32_t>(seed * 0x9E37u);
  const auto plain = random_plain_fn(secret, c.n_inputs);
  const Xoshiro256 base(seed);
  const TraceBatch wide = capture_batch(c.target, n_traces, plain, base, 64);
  const TraceBatch narrow = capture_batch(c.target, n_traces, plain, base, 1);
  ASSERT_EQ(wide.n, narrow.n);
  ASSERT_EQ(wide.samples, narrow.samples);
  EXPECT_EQ(wide.data, narrow.data)
      << "inputs=" << c.n_inputs << " order=" << c.order
      << " sigma=" << c.sigma << " n=" << n_traces << " seed=" << seed;
}

// One TVLA differential: identical config except the engine; reports must
// match exactly (t vectors and every curve checkpoint). Exercises the
// exact integer fold (sigma=0, few counter planes) and the double fold
// (sigma>0) depending on the drawn case.
void expect_tvla_identical(const Case& c, int n_traces, std::uint64_t seed) {
  const std::uint32_t fixed = static_cast<std::uint32_t>(seed & 0x3F);
  TvlaConfig wide_cfg;
  wide_cfg.seed = seed;
  wide_cfg.lanes = 64;
  TvlaConfig narrow_cfg = wide_cfg;
  narrow_cfg.lanes = 1;
  const TvlaReport w = tvla_fixed_vs_random(c.target, fixed, n_traces,
                                            wide_cfg);
  const TvlaReport n = tvla_fixed_vs_random(c.target, fixed, n_traces,
                                            narrow_cfg);
  EXPECT_EQ(w.t1, n.t1) << "order=" << c.order << " sigma=" << c.sigma
                        << " seed=" << seed;
  EXPECT_EQ(w.t2, n.t2);
  ASSERT_EQ(w.curve.size(), n.curve.size());
  for (std::size_t i = 0; i < w.curve.size(); ++i) {
    EXPECT_EQ(w.curve[i].max_abs_t1, n.curve[i].max_abs_t1);
    EXPECT_EQ(w.curve[i].max_abs_t2, n.curve[i].max_abs_t2);
  }
  EXPECT_EQ(w.first_order_leak, n.first_order_leak);
  EXPECT_EQ(w.second_order_leak, n.second_order_leak);
}

MaskedTraceTarget sbox_target(unsigned order, double sigma) {
  auto masked = masking::mask_circuit(analysis::aes_sbox_circuit(), order);
  return MaskedTraceTarget(std::move(masked), 8,
                           {PowerModel::kHammingWeight, sigma},
                           BitOrder::kMsbFirst);
}

// --- Full harness ---------------------------------------------------------

TEST(BitsliceDifferential, CaptureBatchMatchesScalarOracle) {
  // 640 cases: 160 random circuits x 4 (trace count, campaign seed)
  // pairs. Trace counts straddle block boundaries so full blocks, tail
  // blocks and sub-block campaigns all appear.
  Xoshiro256 sweep(0xD1FFE2E47 ^ 1);
  const std::uint64_t counts[4] = {96, 128, 137, 256};
  for (int i = 0; i < 160; ++i) {
    const Case c = random_case(sweep);
    for (int k = 0; k < 4; ++k) {
      expect_batch_identical(c, counts[static_cast<std::size_t>(k)],
                             sweep.next_u64());
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BitsliceDifferential, TvlaStatisticsMatchScalarEngine) {
  // 320 cases: 80 random circuits x 4 noise seeds each. n_traces is not a
  // multiple of 64 or of the chunk grain, so tail blocks inside tail
  // chunks are part of every case.
  Xoshiro256 sweep(0x7E57ED ^ 0xB17);
  for (int i = 0; i < 80; ++i) {
    const Case c = random_case(sweep);
    for (int k = 0; k < 4; ++k) {
      expect_tvla_identical(c, 420, sweep.next_u64());
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BitsliceDifferential, ThreadCountNeverChangesEitherEngine) {
  // 48 cases: 6 random circuits x both engines x threads {1,2,4,7} must
  // all produce one bit-identical TVLA report.
  Xoshiro256 sweep(0x5EED5CA);
  for (int i = 0; i < 6; ++i) {
    const Case c = random_case(sweep);
    const std::uint64_t seed = sweep.next_u64();
    for (int lanes : {64, 1}) {
      TvlaConfig cfg;
      cfg.seed = seed;
      cfg.lanes = lanes;
      TvlaReport reference;
      {
        par::ScopedThreadCount one(1);
        reference = tvla_fixed_vs_random(c.target, 0x2A, 500, cfg);
      }
      for (int threads : {2, 4, 7}) {
        par::ScopedThreadCount scope(threads);
        const TvlaReport report =
            tvla_fixed_vs_random(c.target, 0x2A, 500, cfg);
        EXPECT_EQ(report.t1, reference.t1)
            << "lanes=" << lanes << " threads=" << threads;
        EXPECT_EQ(report.t2, reference.t2)
            << "lanes=" << lanes << " threads=" << threads;
      }
    }
  }
}

TEST(BitsliceDifferential, CpaMatchesScalarEngineOnSbox) {
  // 8 cases: the S-box CPA campaign across masking orders, noise levels
  // and keys; correlations and key ranking must agree exactly.
  const std::uint8_t keys[2] = {0x3C, 0xA7};
  int cases = 0;
  for (unsigned order : {0u, 1u}) {
    for (double sigma : {0.0, 0.8}) {
      const auto target = sbox_target(order, sigma);
      for (std::uint8_t key : keys) {
        CpaConfig wide_cfg;
        wide_cfg.seed = 0xC0FFEE ^ (order * 7919u) ^ key;
        wide_cfg.lanes = 64;
        CpaConfig narrow_cfg = wide_cfg;
        narrow_cfg.lanes = 1;
        const CpaReport w = cpa_sbox_attack(target, key, 768, wide_cfg);
        const CpaReport n = cpa_sbox_attack(target, key, 768, narrow_cfg);
        EXPECT_EQ(w.correlation, n.correlation)
            << "order=" << order << " sigma=" << sigma;
        EXPECT_EQ(w.rank, n.rank);
        EXPECT_EQ(w.recovered_key, n.recovered_key);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 8);
}

// --- sca_fast smoke subset ------------------------------------------------

TEST(BitsliceSmoke, CaptureBatchMatchesScalarOracle) {
  // 24 quick cases over small circuits; same property as the full sweep.
  Xoshiro256 sweep(0xFA57);
  for (int i = 0; i < 12; ++i) {
    const Case c = random_case(sweep);
    expect_batch_identical(c, 64, sweep.next_u64());
    expect_batch_identical(c, 70, sweep.next_u64());
    if (HasFatalFailure()) return;
  }
}

TEST(BitsliceSmoke, TvlaStatisticsMatchScalarEngine) {
  // 8 quick TVLA differentials.
  Xoshiro256 sweep(0xFA57 ^ 0xB17);
  for (int i = 0; i < 8; ++i) {
    const Case c = random_case(sweep);
    expect_tvla_identical(c, 200, sweep.next_u64());
    if (HasFatalFailure()) return;
  }
}

TEST(BitsliceSmoke, UnmaskedSboxSpeedupPathStillLeaks) {
  // The bench's 1M-trace campaign in miniature: the noiseless unmasked
  // S-box must fail first-order TVLA on both engines with the same curve.
  const auto target = sbox_target(0, 0.0);
  for (int lanes : {64, 1}) {
    TvlaConfig cfg;
    cfg.lanes = lanes;
    const TvlaReport r = tvla_fixed_vs_random(target, 0x52, 4096, cfg);
    EXPECT_TRUE(r.first_order_leak) << "lanes=" << lanes;
  }
}

}  // namespace
}  // namespace convolve::sca
