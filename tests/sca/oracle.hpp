// Per-trace reference oracles for the 64-lane sca engine: every trace is
// captured on its own through MaskedTraceTarget::capture() and folded one
// trace at a time, so nothing here shares block layout, fold order or
// accumulation code with capture_batch / tvla_fixed_vs_random.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "convolve/common/rng.hpp"
#include "convolve/common/stats.hpp"
#include "convolve/sca/target.hpp"
#include "convolve/sca/tvla.hpp"

namespace convolve::sca::oracle {

/// Trace i of the batch: rng = base.split(i), value = plain(i, rng), then
/// a scalar capture from the same stream -- capture_batch's contract.
inline TraceBatch capture_loop(const MaskedTraceTarget& target,
                               std::uint64_t n_traces,
                               const PlainValueFn& plain,
                               const Xoshiro256& base) {
  TraceBatch batch;
  batch.samples = target.samples();
  batch.n = n_traces;
  const std::size_t samples = static_cast<std::size_t>(batch.samples);
  batch.data.assign(n_traces * samples, 0.0);
  TraceScratch scratch = target.make_scratch();
  for (std::uint64_t i = 0; i < n_traces; ++i) {
    Xoshiro256 rng = base.split(i);
    const std::uint32_t value = plain(i, rng);
    target.capture(value, rng, scratch,
                   {batch.data.data() + i * samples, samples});
  }
  return batch;
}

/// The engine's batch must equal the oracle's bit for bit (operator== on
/// the double buffers, no tolerance).
inline void expect_batch_matches(const MaskedTraceTarget& target,
                                 std::uint64_t n_traces,
                                 const PlainValueFn& plain,
                                 const Xoshiro256& base,
                                 const std::string& context) {
  const TraceBatch engine = capture_batch(target, n_traces, plain, base);
  const TraceBatch ref = capture_loop(target, n_traces, plain, base);
  ASSERT_EQ(engine.n, ref.n) << context;
  ASSERT_EQ(engine.samples, ref.samples) << context;
  EXPECT_EQ(engine.data, ref.data) << context;
}

/// |a - b| <= 1e-9 * max(1, |b|): the engines may round differently from a
/// per-trace fold, nothing more.
inline bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

struct TvlaPoint {
  int traces = 0;
  std::vector<double> t1, t2;
  double max_abs_t1 = 0.0, max_abs_t2 = 0.0;
};

/// TVLA by the header's contract, one trace at a time: trace i is fixed
/// class iff i is even; a random-class trace draws its plain value as
/// (uint32)rng.next_u64() masked to plain_inputs() bits from
/// rng = split(i) before capturing. Every trace is folded with
/// Welford::add; statistics are taken at each count in `checkpoints`.
inline std::vector<TvlaPoint> tvla(const MaskedTraceTarget& target,
                                   std::uint32_t fixed_value,
                                   const std::vector<int>& checkpoints,
                                   std::uint64_t seed) {
  const std::uint32_t mask = target.plain_inputs() >= 32
                                 ? 0xFFFFFFFFu
                                 : (1u << target.plain_inputs()) - 1u;
  const std::size_t samples = static_cast<std::size_t>(target.samples());
  const Xoshiro256 base(seed);
  TraceScratch scratch = target.make_scratch();
  std::vector<double> trace(samples);
  std::vector<Welford> fixed(samples), random(samples);
  std::vector<TvlaPoint> points;
  int done = 0;
  for (int cp : checkpoints) {
    for (; done < cp; ++done) {
      const auto i = static_cast<std::uint64_t>(done);
      Xoshiro256 rng = base.split(i);
      const bool is_fixed = i % 2 == 0;
      const std::uint32_t value =
          is_fixed ? fixed_value
                   : static_cast<std::uint32_t>(rng.next_u64()) & mask;
      target.capture(value, rng, scratch, trace);
      std::vector<Welford>& cls = is_fixed ? fixed : random;
      for (std::size_t s = 0; s < samples; ++s) cls[s].add(trace[s]);
    }
    TvlaPoint p;
    p.traces = cp;
    for (std::size_t s = 0; s < samples; ++s) {
      p.t1.push_back(welch_t(fixed[s], random[s]));
      p.t2.push_back(welch_t_centered_square(fixed[s], random[s]));
      p.max_abs_t1 = std::max(p.max_abs_t1, std::abs(p.t1.back()));
      p.max_abs_t2 = std::max(p.max_abs_t2, std::abs(p.t2.back()));
    }
    points.push_back(std::move(p));
  }
  return points;
}

/// Run the engine and check its report against the per-trace oracle at
/// every checkpoint the report recorded: t1/t2 at the full count, both
/// max-|t| values at every checkpoint, both verdicts and both
/// first-failure counts.
inline void expect_tvla_matches(const MaskedTraceTarget& target,
                                std::uint32_t fixed_value, int n_traces,
                                const TvlaConfig& config,
                                const std::string& context) {
  const TvlaReport r =
      tvla_fixed_vs_random(target, fixed_value, n_traces, config);
  ASSERT_FALSE(r.curve.empty()) << context;
  ASSERT_EQ(r.curve.back().traces, n_traces) << context;
  std::vector<int> cps;
  for (const TvlaCheckpoint& c : r.curve) cps.push_back(c.traces);
  const std::vector<TvlaPoint> ref =
      tvla(target, fixed_value, cps, config.seed);
  int first1 = -1, first2 = -1;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(close(r.curve[i].max_abs_t1, ref[i].max_abs_t1))
        << context << " traces=" << cps[i] << " max|t1| "
        << r.curve[i].max_abs_t1 << " vs " << ref[i].max_abs_t1;
    EXPECT_TRUE(close(r.curve[i].max_abs_t2, ref[i].max_abs_t2))
        << context << " traces=" << cps[i] << " max|t2| "
        << r.curve[i].max_abs_t2 << " vs " << ref[i].max_abs_t2;
    if (first1 < 0 && ref[i].max_abs_t1 > config.threshold) first1 = cps[i];
    if (first2 < 0 && ref[i].max_abs_t2 > config.threshold) first2 = cps[i];
  }
  const TvlaPoint& last = ref.back();
  ASSERT_EQ(r.t1.size(), last.t1.size()) << context;
  for (std::size_t s = 0; s < last.t1.size(); ++s) {
    EXPECT_TRUE(close(r.t1[s], last.t1[s]))
        << context << " s=" << s << " t1 " << r.t1[s] << " vs " << last.t1[s];
    EXPECT_TRUE(close(r.t2[s], last.t2[s]))
        << context << " s=" << s << " t2 " << r.t2[s] << " vs " << last.t2[s];
  }
  EXPECT_EQ(r.first_order_leak, last.max_abs_t1 > config.threshold)
      << context;
  EXPECT_EQ(r.second_order_leak, last.max_abs_t2 > config.threshold)
      << context;
  EXPECT_EQ(r.traces_to_first_order_fail, first1) << context;
  EXPECT_EQ(r.traces_to_second_order_fail, first2) << context;
}

}  // namespace convolve::sca::oracle
