#include "convolve/sca/cpa.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "convolve/common/bytes.hpp"
#include "convolve/common/parallel.hpp"
#include "convolve/common/stats.hpp"
#include "convolve/common/telemetry.hpp"
#include "convolve/masking/gf256.hpp"
#include "checkpoints.hpp"

namespace convolve::sca {

namespace {

constexpr int kGuesses = 256;

// One-pass sums for the Pearson correlation between every (guess, sample)
// pair: all fields are plain sums, so merging shards in rank order is
// exact and deterministic.
struct CpaSums {
  double n = 0.0;
  std::vector<double> sx;    // per sample
  std::vector<double> sxx;   // per sample
  std::vector<double> sh;    // per guess
  std::vector<double> shh;   // per guess
  std::vector<double> shx;   // guess-major [guess][sample]

  explicit CpaSums(int samples)
      : sx(static_cast<std::size_t>(samples), 0.0),
        sxx(static_cast<std::size_t>(samples), 0.0),
        sh(kGuesses, 0.0),
        shh(kGuesses, 0.0),
        shx(static_cast<std::size_t>(kGuesses * samples), 0.0) {}

  void merge(const CpaSums& o) {
    n += o.n;
    for (std::size_t i = 0; i < sx.size(); ++i) sx[i] += o.sx[i];
    for (std::size_t i = 0; i < sxx.size(); ++i) sxx[i] += o.sxx[i];
    for (std::size_t i = 0; i < sh.size(); ++i) sh[i] += o.sh[i];
    for (std::size_t i = 0; i < shh.size(); ++i) shh[i] += o.shh[i];
    for (std::size_t i = 0; i < shx.size(); ++i) shx[i] += o.shx[i];
  }
};

}  // namespace

CpaReport cpa_sbox_attack(const MaskedTraceTarget& target, std::uint8_t key,
                          int n_traces, const CpaConfig& config) {
  if (target.plain_inputs() != 8) {
    throw std::invalid_argument("cpa_sbox_attack: target is not an 8-bit box");
  }
  if (n_traces < 8) throw std::invalid_argument("cpa: need >= 8 traces");
  CONVOLVE_TRACE_SPAN("sca.cpa");
  const int samples = target.samples();

  // Hypothesis table: HW(S(v)) for every S-box input v.
  std::array<double, kGuesses> hw_sbox;
  for (int v = 0; v < kGuesses; ++v) {
    hw_sbox[static_cast<std::size_t>(v)] = hamming_weight(
        static_cast<std::uint64_t>(
            masking::aes_sbox(static_cast<std::uint8_t>(v))));
  }

  std::vector<int> checkpoints = config.checkpoints.empty()
                                     ? default_checkpoints(n_traces)
                                     : config.checkpoints;

  CpaReport report;
  report.samples = samples;
  report.true_key = key;

  const Xoshiro256 base(config.seed);
  CpaSums total(samples);
  int done = 0;
  for (int checkpoint : checkpoints) {
    if (checkpoint <= done || checkpoint > n_traces) continue;
    const std::uint64_t seg = static_cast<std::uint64_t>(checkpoint - done);
    const std::uint64_t offset = static_cast<std::uint64_t>(done);
    CpaSums segment = par::parallel_reduce(
        seg, config.grain, CpaSums(samples),
        [&](std::uint64_t, par::Range r) {
          // Capture 64 traces per gate pass, then accumulate the sums
          // strictly per trace in ascending index order.
          constexpr std::uint64_t kL =
              static_cast<std::uint64_t>(PowerTraceSimulator::kLanes);
          CpaSums local(samples);
          const std::size_t samp = static_cast<std::size_t>(samples);
          std::vector<double> rows(static_cast<std::size_t>(kL) * samp);
          std::array<Xoshiro256, kL> rngs;
          std::array<std::uint32_t, kL> values;
          std::array<std::uint8_t, kL> plains;

          const auto accumulate_trace = [&](std::uint8_t p,
                                            const double* trace) {
            local.n += 1.0;
            for (std::size_t s = 0; s < samp; ++s) {
              const double x = trace[s];
              local.sx[s] += x;
              local.sxx[s] += x * x;
            }
            for (int g = 0; g < kGuesses; ++g) {
              const double h = hw_sbox[static_cast<std::size_t>(p ^ g)];
              local.sh[static_cast<std::size_t>(g)] += h;
              local.shh[static_cast<std::size_t>(g)] += h * h;
              double* row = &local.shx[static_cast<std::size_t>(g * samples)];
              for (std::size_t s = 0; s < samp; ++s) {
                row[s] += h * trace[s];
              }
            }
          };

          BlockScratch block_scratch = target.make_block_scratch();
          for (std::uint64_t k = r.begin; k < r.end; k += kL) {
            const std::size_t n_act =
                static_cast<std::size_t>(std::min(kL, r.end - k));
            for (std::size_t j = 0; j < n_act; ++j) {
              rngs[j] = base.split(offset + k + j);
              plains[j] =
                  static_cast<std::uint8_t>(rngs[j].next_u64() & 0xFF);
              values[j] = static_cast<std::uint32_t>(plains[j] ^ key);
            }
            target.capture_block({values.data(), n_act},
                                 {rngs.data(), n_act}, block_scratch,
                                 {rows.data(), n_act * samp});
            for (std::size_t j = 0; j < n_act; ++j) {
              accumulate_trace(plains[j], rows.data() + j * samp);
            }
          }
          return local;
        },
        [](CpaSums acc, CpaSums part) {
          acc.merge(part);
          return acc;
        });
    total.merge(segment);
    done = checkpoint;

    // Rank the guesses by max |rho| over the samples.
    report.correlation.assign(kGuesses, 0.0);
    for (int g = 0; g < kGuesses; ++g) {
      double best = 0.0;
      for (int s = 0; s < samples; ++s) {
        const double sxg = total.sx[static_cast<std::size_t>(s)];
        const double num =
            total.n * total.shx[static_cast<std::size_t>(g * samples + s)] -
            total.sh[static_cast<std::size_t>(g)] * sxg;
        const double dh =
            total.n * total.shh[static_cast<std::size_t>(g)] -
            total.sh[static_cast<std::size_t>(g)] *
                total.sh[static_cast<std::size_t>(g)];
        const double dx = total.n * total.sxx[static_cast<std::size_t>(s)] -
                          sxg * sxg;
        if (dh <= 0.0 || dx <= 0.0) continue;
        best = std::max(best, std::abs(num / std::sqrt(dh * dx)));
      }
      report.correlation[static_cast<std::size_t>(g)] = best;
    }
    CpaCheckpoint cp;
    cp.traces = done;
    cp.true_key_corr = report.correlation[key];
    int rank = 0;
    double best_corr = 0.0;
    for (int g = 0; g < kGuesses; ++g) {
      best_corr =
          std::max(best_corr, report.correlation[static_cast<std::size_t>(g)]);
      if (g != key &&
          report.correlation[static_cast<std::size_t>(g)] > cp.true_key_corr) {
        ++rank;
      }
    }
    cp.rank = rank;
    cp.best_corr = best_corr;
    if (rank == 0 && report.traces_to_rank0 < 0) {
      report.traces_to_rank0 = done;
    }
    report.curve.push_back(cp);
  }

  if (report.curve.empty()) {
    throw std::invalid_argument("cpa: no checkpoint within n_traces");
  }
  const CpaCheckpoint& last = report.curve.back();
  report.rank = last.rank;
  report.recovered_key = static_cast<std::uint8_t>(
      argmax(report.correlation));
  return report;
}

}  // namespace convolve::sca
