#include "convolve/sca/tvla.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "convolve/common/parallel.hpp"
#include "convolve/common/telemetry.hpp"
#include "checkpoints.hpp"

namespace convolve::sca {

namespace {

// Per-class, per-sample moment accumulators for one shard of traces.
struct Moments {
  std::vector<Welford> fixed;
  std::vector<Welford> random;

  explicit Moments(int samples)
      : fixed(static_cast<std::size_t>(samples)),
        random(static_cast<std::size_t>(samples)) {}

  void merge(const Moments& other) {
    for (std::size_t s = 0; s < fixed.size(); ++s) {
      fixed[s].merge(other.fixed[s]);
      random[s].merge(other.random[s]);
    }
  }
};

// Exact integer power sums (PackedMoments, see trace.hpp). Noiseless
// Hamming-weight samples are small integers, so S1..S4 accumulate exactly
// -- no rounding, no accumulation-order sensitivity -- and the first four
// central moments follow from them with exact 128-bit integer numerators.
// accumulate_block_sums reaches these sums through subset popcounts of the
// counter planes without ever extracting a lane. Batches are capped by
// exact_flush_threshold so the four fields cannot carry into each other:
// S1 < 2^16, S3 < 2^48, S2 < 2^24, S4 < 2^40.
//
// Central moment sums from the unpacked power sums: the numerators are
// exact in __int128 (values < 2^8, batches of <= 320 traces), so the
// only rounding is the final int->double conversion and one division --
// identical on every IEEE-754 machine.
Welford packed_to_welford(const PackedMoments& pm, std::uint64_t n) {
  if (n == 0) return {};
  using I = __int128;
  const I N = static_cast<I>(n);
  const I S1 = static_cast<I>(pm.s13 & 0xFFFFull);
  const I S3 = static_cast<I>(pm.s13 >> 16);
  const I S2 = static_cast<I>(pm.s24 & 0xFFFFFFull);
  const I S4 = static_cast<I>(pm.s24 >> 24);
  const double dn = static_cast<double>(n);
  const double mean = static_cast<double>(pm.s13 & 0xFFFFull) / dn;
  const I m2n = N * S2 - S1 * S1;
  const I m3n = N * N * S3 - 3 * N * S1 * S2 + 2 * S1 * S1 * S1;
  const I m4n = N * N * N * S4 - 4 * N * N * S1 * S3 +
                6 * N * S1 * S1 * S2 - 3 * S1 * S1 * S1 * S1;
  return Welford::from_moments(
      n, mean, static_cast<double>(m2n) / dn,
      static_cast<double>(m3n) / (dn * dn),
      static_cast<double>(m4n) / (dn * dn * dn));
}

// Traces accumulated into one PackedMoments batch before converting to a
// Welford merge. The limit keeps every packed field from overflowing: with
// counter values <= vmax = 2^planes - 1 a class of n traces needs
// n * vmax < 2^16 (S1), n * vmax^2 < 2^24 (S2), n * vmax^4 < 2^40 (S4;
// S3's 48-bit top field is implied by S4's bound). The flush check runs
// after a whole 64-trace block, so a batch reaches threshold + 63 traces
// with at most (threshold + 64) / 2 per class. Flushing is real work
// (per-sample __int128 moment conversion plus two Welford merges), so the
// largest safe batch matters: planes = 4 flushes ~32x less often than the
// worst case. Depends only on the target's plane count, so the flush
// points -- chunk boundaries being f(n, grain) -- are thread-count
// invariant.
std::uint64_t exact_flush_threshold(int counter_planes) {
  if (counter_planes <= 0) return 1ull << 20;  // all counts are zero
  const std::uint64_t vmax = (1ull << counter_planes) - 1;
  const std::uint64_t v2 = vmax * vmax;
  const std::uint64_t per_class =
      std::min({0xFFFFull / vmax, 0xFFFFFFull / v2, (1ull << 40) / (v2 * v2)});
  return 2 * per_class - 64;
}

}  // namespace

TvlaReport tvla_fixed_vs_random(const MaskedTraceTarget& target,
                                std::uint32_t fixed_value, int n_traces,
                                const TvlaConfig& config) {
  if (n_traces < 4) throw std::invalid_argument("tvla: need >= 4 traces");
  CONVOLVE_TRACE_SPAN("sca.tvla");
  // The exact integer fold applies whenever samples are noiseless integer
  // Hamming counts small enough for uint64 power sums (counter_planes <= 8
  // means values < 256); otherwise blocks are captured as doubles and
  // folded through Welford::add_block.
  const bool exact_fold = target.simulator().config().noise_sigma == 0.0 &&
                          target.simulator().counter_planes() <= 8;
  const int samples = target.samples();
  const std::uint32_t value_mask =
      target.plain_inputs() >= 32
          ? 0xFFFFFFFFu
          : (1u << target.plain_inputs()) - 1u;
  const auto draw_value = [&](std::uint64_t i, Xoshiro256& rng) {
    return (i % 2 == 0)
               ? fixed_value
               : static_cast<std::uint32_t>(rng.next_u64()) & value_mask;
  };
  // A fixed-class trace of an unshared, randomless, noiseless target never
  // reads its per-trace rng: the split state is unobservable, so skipping
  // the split is bit-identical to the contractual "trace i draws from
  // base.split(i)" and halves the per-block rng setup. Random-class traces
  // still split (the plain-value draw consumes the stream).
  const bool rng_unused = exact_fold && target.masking_order() == 0 &&
                          target.simulator().circuit().num_randoms() == 0;

  std::vector<int> checkpoints = config.checkpoints.empty()
                                     ? default_checkpoints(n_traces)
                                     : config.checkpoints;

  TvlaReport report;
  report.samples = samples;
  report.threshold = config.threshold;

  const Xoshiro256 base(config.seed);
  Moments total(samples);
  int done = 0;
  for (int checkpoint : checkpoints) {
    if (checkpoint <= done || checkpoint > n_traces) continue;
    // Capture the segment [done, checkpoint) and fold it into the running
    // accumulators: parallel_reduce merges the per-chunk moments in
    // ascending chunk order, and segments merge in schedule order, so the
    // whole curve is thread-count invariant.
    const std::uint64_t seg = static_cast<std::uint64_t>(checkpoint - done);
    const std::uint64_t offset = static_cast<std::uint64_t>(done);
    Moments segment = par::parallel_reduce(
        seg, config.grain, Moments(samples),
        [&](std::uint64_t, par::Range r) {
          // Walk the chunk in 64-trace blocks anchored at r.begin (chunk
          // boundaries are f(n, grain), never the thread count), one gate
          // pass per block.
          constexpr std::uint64_t kL =
              static_cast<std::uint64_t>(PowerTraceSimulator::kLanes);
          Moments local(samples);
          const std::size_t samp = static_cast<std::size_t>(samples);
          std::array<Xoshiro256, kL> rngs;
          std::array<std::uint32_t, kL> values;
          BlockScratch block_scratch = target.make_block_scratch();
          const auto draw_block = [&](std::uint64_t i0, std::size_t n_act) {
            for (std::size_t j = 0; j < n_act; ++j) {
              const std::uint64_t gi = i0 + j;
              if (!rng_unused || gi % 2 != 0) rngs[j] = base.split(gi);
              values[j] = draw_value(gi, rngs[j]);
            }
          };
          if (exact_fold) {
            // Exact integer fold: accumulate per-sample per-class packed
            // power sums over flush_at-trace batches, convert each batch
            // to a Welford merge with exact 128-bit numerators.
            std::vector<PackedMoments> ifx(samp), irn(samp);
            BlockSumsAccum accum = target.make_block_sums_accum();
            // Fixed-class lanes of every block in this chunk: block starts
            // step by 64, so the global parity of lane j is constant
            // across the chunk and the class mask can be hoisted.
            constexpr std::uint64_t kEvenLanes = 0x5555555555555555ull;
            const std::uint64_t fixed_mask =
                ((offset + r.begin) % 2 == 0) ? kEvenLanes : ~kEvenLanes;
            const std::uint64_t flush_at =
                exact_flush_threshold(target.simulator().counter_planes());
            std::uint64_t batch_nf = 0, batch_nr = 0;
            const auto flush = [&]() {
              if (batch_nf + batch_nr == 0) return;
              target.finalize_block_sums(accum, ifx, irn);
              for (std::size_t s = 0; s < samp; ++s) {
                local.fixed[s].merge(packed_to_welford(ifx[s], batch_nf));
                local.random[s].merge(packed_to_welford(irn[s], batch_nr));
              }
              batch_nf = 0;
              batch_nr = 0;
            };
            for (std::uint64_t k = r.begin; k < r.end; k += kL) {
              const std::uint64_t i0 = offset + k;
              const std::size_t n_act =
                  static_cast<std::size_t>(std::min(kL, r.end - k));
              draw_block(i0, n_act);
              target.accumulate_block_sums({values.data(), n_act},
                                           {rngs.data(), n_act},
                                           block_scratch, fixed_mask,
                                           accum);
              // Even global trace indices are the fixed class.
              const std::uint64_t n_even =
                  (i0 % 2 == 0) ? (n_act + 1) / 2 : n_act / 2;
              batch_nf += n_even;
              batch_nr += n_act - n_even;
              if (batch_nf + batch_nr >= flush_at) flush();
            }
            flush();
            return local;
          }
          // Double fold: capture each block sample-major, so sample s's
          // column of up to 64 lane values is contiguous, then split the
          // column by trace parity (even global index -> fixed class) and
          // merge each class as one Welford block.
          std::vector<double> rows(static_cast<std::size_t>(kL) * samp);
          std::vector<double> col_f(static_cast<std::size_t>(kL));
          std::vector<double> col_r(static_cast<std::size_t>(kL));
          for (std::uint64_t k = r.begin; k < r.end; k += kL) {
            const std::uint64_t i0 = offset + k;
            const std::size_t n_act =
                static_cast<std::size_t>(std::min(kL, r.end - k));
            draw_block(i0, n_act);
            target.capture_block({values.data(), n_act},
                                 {rngs.data(), n_act}, block_scratch,
                                 {rows.data(), n_act * samp},
                                 BlockLayout::kSampleMajor);
            for (std::size_t s = 0; s < samp; ++s) {
              const double* col = rows.data() + s * n_act;
              std::size_t nf = 0, nr = 0;
              for (std::size_t j = 0; j < n_act; ++j) {
                if ((i0 + j) % 2 == 0) {
                  col_f[nf++] = col[j];
                } else {
                  col_r[nr++] = col[j];
                }
              }
              local.fixed[s].add_block({col_f.data(), nf});
              local.random[s].add_block({col_r.data(), nr});
            }
          }
          return local;
        },
        [](Moments acc, Moments part) {
          acc.merge(part);
          return acc;
        });
    total.merge(segment);
    done = checkpoint;

    TvlaCheckpoint cp;
    cp.traces = done;
    report.t1.assign(static_cast<std::size_t>(samples), 0.0);
    report.t2.assign(static_cast<std::size_t>(samples), 0.0);
    for (int s = 0; s < samples; ++s) {
      const auto& f = total.fixed[static_cast<std::size_t>(s)];
      const auto& r = total.random[static_cast<std::size_t>(s)];
      const double t1 = welch_t(f, r);
      const double t2 = welch_t_centered_square(f, r);
      report.t1[static_cast<std::size_t>(s)] = t1;
      report.t2[static_cast<std::size_t>(s)] = t2;
      cp.max_abs_t1 = std::max(cp.max_abs_t1, std::abs(t1));
      cp.max_abs_t2 = std::max(cp.max_abs_t2, std::abs(t2));
    }
    if (cp.max_abs_t1 > config.threshold &&
        report.traces_to_first_order_fail < 0) {
      report.traces_to_first_order_fail = done;
    }
    if (cp.max_abs_t2 > config.threshold &&
        report.traces_to_second_order_fail < 0) {
      report.traces_to_second_order_fail = done;
    }
    report.curve.push_back(cp);
  }

  if (report.curve.empty()) {
    throw std::invalid_argument("tvla: no checkpoint within n_traces");
  }
  const TvlaCheckpoint& last = report.curve.back();
  report.max_abs_t1 = last.max_abs_t1;
  report.max_abs_t2 = last.max_abs_t2;
  report.first_order_leak = last.max_abs_t1 > config.threshold;
  report.second_order_leak = last.max_abs_t2 > config.threshold;
  return report;
}

}  // namespace convolve::sca
