// Property-test harness for the 64-lane capture engine against the
// per-trace oracle (tests/sca/oracle.hpp: MaskedTraceTarget::capture()
// one trace at a time, folded with Welford::add or plain Pearson sums).
// Randomized circuits x secrets x noise seeds must agree: raw trace
// batches bit for bit, TVLA statistics (every checkpoint of the curve) and
// CPA correlations to 1e-9 relative, at every thread count.
//
// Case budget (a "case" is one random circuit/secret/seed triple): 640
// capture + 320 TVLA + 48 thread-sweep + 8 CPA + 32 smoke = 1048
// randomized cases per run, on top of the directed edge-case suite in
// test_bitslice_lanes.cpp.
//
// The BitsliceSmoke-prefixed tests are a seconds-fast subset registered
// under the `sca_fast` ctest label (`ctest -L sca_fast`); the Bitslice
// tests are the full harness.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "convolve/analysis/aes_sbox.hpp"
#include "convolve/common/bytes.hpp"
#include "convolve/common/parallel.hpp"
#include "convolve/common/rng.hpp"
#include "convolve/common/stats.hpp"
#include "convolve/masking/gf256.hpp"
#include "convolve/sca/cpa.hpp"
#include "convolve/sca/target.hpp"
#include "convolve/sca/tvla.hpp"
#include "oracle.hpp"

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
// values, so engine and oracle must agree on data-dependent inputs too.
PlainValueFn random_plain_fn(std::uint32_t secret, int n_inputs) {
  const std::uint32_t mask =
      n_inputs >= 32 ? 0xFFFFFFFFu : ((1u << n_inputs) - 1u);
  return [secret, mask](std::uint64_t, Xoshiro256& r) {
    return (static_cast<std::uint32_t>(r.next_u64()) ^ secret) & mask;
  };
}

std::string describe(const Case& c, std::uint64_t n, std::uint64_t seed) {
  return "inputs=" + std::to_string(c.n_inputs) +
         " order=" + std::to_string(c.order) +
         " sigma=" + std::to_string(c.sigma) + " n=" + std::to_string(n) +
         " seed=" + std::to_string(seed);
}

// One capture differential: capture_batch against the per-trace capture()
// loop over the same split streams.
void expect_batch_matches_oracle(const Case& c, std::uint64_t n_traces,
                            std::uint64_t seed) {
  const std::uint32_t secret = static_cast<std::uint32_t>(seed * 0x9E37u);
  oracle::expect_batch_matches(c.target, n_traces,
                               random_plain_fn(secret, c.n_inputs),
                               Xoshiro256(seed), describe(c, n_traces, seed));
}

// One TVLA differential against the per-trace Welford fold. Exercises the
// exact integer fold (sigma=0, few counter planes) and the double fold
// (sigma>0) depending on the drawn case.
void expect_tvla_matches_oracle(const Case& c, int n_traces, std::uint64_t seed) {
  const std::uint32_t fixed = static_cast<std::uint32_t>(seed & 0x3F);
  TvlaConfig cfg;
  cfg.seed = seed;
  oracle::expect_tvla_matches(
      c.target, fixed, n_traces, cfg,
      describe(c, static_cast<std::uint64_t>(n_traces), seed));
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
      expect_batch_matches_oracle(c, counts[static_cast<std::size_t>(k)],
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
      expect_tvla_matches_oracle(c, 420, sweep.next_u64());
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BitsliceDifferential, ThreadCountNeverChangesEitherEngine) {
  // 48 cases: 6 random circuits x threads {1,2,4,7} x both consumers of
  // the 64-lane engine -- a TVLA report and a capture_batch -- must each
  // be bit-identical to the single-thread run. The drawn circuits cover
  // both TVLA folds (exact integer and double).
  Xoshiro256 sweep(0x5EED5CA);
  int noiseless = 0;
  for (int i = 0; i < 6; ++i) {
    const Case c = random_case(sweep);
    noiseless += c.sigma == 0.0 ? 1 : 0;
    const std::uint64_t seed = sweep.next_u64();
    TvlaConfig cfg;
    cfg.seed = seed;
    const auto plain = random_plain_fn(static_cast<std::uint32_t>(seed),
                                       c.n_inputs);
    const Xoshiro256 base(seed);
    TvlaReport reference;
    TraceBatch ref_batch;
    {
      par::ScopedThreadCount one(1);
      reference = tvla_fixed_vs_random(c.target, 0x2A, 500, cfg);
      ref_batch = capture_batch(c.target, 500, plain, base);
    }
    for (int threads : {2, 4, 7}) {
      par::ScopedThreadCount scope(threads);
      const TvlaReport report =
          tvla_fixed_vs_random(c.target, 0x2A, 500, cfg);
      EXPECT_EQ(report.t1, reference.t1) << "threads=" << threads;
      EXPECT_EQ(report.t2, reference.t2) << "threads=" << threads;
      EXPECT_EQ(capture_batch(c.target, 500, plain, base).data,
                ref_batch.data)
          << "threads=" << threads;
    }
  }
  EXPECT_GT(noiseless, 0);
  EXPECT_LT(noiseless, 6);
}

// Per-trace Pearson oracle for the S-box CPA: trace i draws its plaintext
// as the low byte of split(i)'s first next_u64(), captures S(p ^ key)
// through capture(), and folds one-pass sums per (guess, sample).
// Returns max |rho| over samples for every guess.
std::vector<double> oracle_cpa(const MaskedTraceTarget& target,
                               std::uint8_t key, int n_traces,
                               std::uint64_t seed) {
  const std::size_t samples = static_cast<std::size_t>(target.samples());
  std::array<double, 256> hw{};
  for (int v = 0; v < 256; ++v) {
    hw[static_cast<std::size_t>(v)] = hamming_weight(
        masking::aes_sbox(static_cast<std::uint8_t>(v)));
  }
  double n = 0.0;
  std::vector<double> sx(samples), sxx(samples), sh(256), shh(256),
      shx(256 * samples);
  const Xoshiro256 base(seed);
  TraceScratch scratch = target.make_scratch();
  std::vector<double> x(samples);
  for (int i = 0; i < n_traces; ++i) {
    Xoshiro256 rng = base.split(static_cast<std::uint64_t>(i));
    const auto p = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
    target.capture(static_cast<std::uint32_t>(p ^ key), rng, scratch, x);
    n += 1.0;
    for (std::size_t s = 0; s < samples; ++s) {
      sx[s] += x[s];
      sxx[s] += x[s] * x[s];
    }
    for (std::size_t g = 0; g < 256; ++g) {
      const double h = hw[p ^ g];
      sh[g] += h;
      shh[g] += h * h;
      for (std::size_t s = 0; s < samples; ++s) {
        shx[g * samples + s] += h * x[s];
      }
    }
  }
  std::vector<double> corr(256, 0.0);
  for (std::size_t g = 0; g < 256; ++g) {
    for (std::size_t s = 0; s < samples; ++s) {
      const double dh = n * shh[g] - sh[g] * sh[g];
      const double dx = n * sxx[s] - sx[s] * sx[s];
      if (dh <= 0.0 || dx <= 0.0) continue;
      const double rho = (n * shx[g * samples + s] - sh[g] * sx[s]) /
                         std::sqrt(dh * dx);
      corr[g] = std::max(corr[g], std::abs(rho));
    }
  }
  return corr;
}

TEST(BitsliceDifferential, CpaMatchesScalarEngineOnSbox) {
  // 8 cases: the S-box CPA campaign across masking orders, noise levels
  // and keys. Correlations must match the per-trace Pearson oracle; on the
  // unmasked target the ranking and recovered key must be equal too.
  const std::uint8_t keys[2] = {0x3C, 0xA7};
  int cases = 0;
  for (unsigned order : {0u, 1u}) {
    for (double sigma : {0.0, 0.8}) {
      const auto target = sbox_target(order, sigma);
      for (std::uint8_t key : keys) {
        CpaConfig cfg;
        cfg.seed = 0xC0FFEE ^ (order * 7919u) ^ key;
        const CpaReport r = cpa_sbox_attack(target, key, 768, cfg);
        const std::vector<double> ref = oracle_cpa(target, key, 768, cfg.seed);
        ASSERT_EQ(r.correlation.size(), ref.size());
        for (std::size_t g = 0; g < ref.size(); ++g) {
          EXPECT_TRUE(oracle::close(r.correlation[g], ref[g]))
              << "order=" << order << " sigma=" << sigma << " guess=" << g
              << " rho " << r.correlation[g] << " vs " << ref[g];
        }
        if (order == 0) {
          int rank = 0;
          for (std::size_t g = 0; g < ref.size(); ++g) {
            if (g != key && ref[g] > ref[key]) ++rank;
          }
          EXPECT_EQ(r.rank, rank) << "sigma=" << sigma;
          EXPECT_EQ(r.recovered_key, argmax(ref)) << "sigma=" << sigma;
        }
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
    expect_batch_matches_oracle(c, 64, sweep.next_u64());
    expect_batch_matches_oracle(c, 70, sweep.next_u64());
    if (HasFatalFailure()) return;
  }
}

TEST(BitsliceSmoke, TvlaStatisticsMatchScalarEngine) {
  // 8 quick TVLA differentials.
  Xoshiro256 sweep(0xFA57 ^ 0xB17);
  for (int i = 0; i < 8; ++i) {
    const Case c = random_case(sweep);
    expect_tvla_matches_oracle(c, 200, sweep.next_u64());
    if (HasFatalFailure()) return;
  }
}

TEST(BitsliceSmoke, UnmaskedSboxSpeedupPathStillLeaks) {
  // The bench's 1M-trace campaign in miniature: the noiseless unmasked
  // S-box must fail first-order TVLA, with the curve the oracle computes.
  const auto target = sbox_target(0, 0.0);
  const TvlaReport r = tvla_fixed_vs_random(target, 0x52, 4096, {});
  EXPECT_TRUE(r.first_order_leak);
  oracle::expect_tvla_matches(target, 0x52, 4096, {}, "unmasked sbox");
}

}  // namespace
}  // namespace convolve::sca
