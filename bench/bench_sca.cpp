// Side-channel lab acceptance harness: TVLA and CPA against the gate-level
// AES S-box at masking orders 0 and 1, under moderate Gaussian noise.
//
// Six scenarios, each timed and reported:
//   tvla_unmasked - order 0 must fail first-order TVLA (max |t1| > 4.5)
//                   within --min-unmasked-fail traces
//   cpa_unmasked  - CPA must recover the key byte (rank 0)
//   tvla_order1   - order-1 DOM must hold first order for at least
//                   --min-masked-ratio x the unmasked failure count, and
//                   must still fail second-order TVLA
//   determinism   - one TVLA run repeated at 1/4/7 threads must produce
//                   bit-identical t statistics
//   lane_diff     - capture_batch on the 64-lane engine must equal a
//                   per-trace capture() loop (the scalar oracle) over the
//                   same split streams, bit for bit
//   tvla_speedup  - a --speedup-traces (default 1M) noiseless TVLA
//                   campaign on the 64-lane engine, timed against the
//                   oracle's bare capture() loop (no statistics fold);
//                   gated by --min-speedup
//
// Every campaign runs on the 64-lane engine. The exit code gates all
// scenarios, so the bench doubles as the acceptance check. --threads=N
// shards trace capture (results are thread-count-invariant by
// construction; N only changes wall time).
//
// Output: a text table by default; --json emits the shared
// bench_report.hpp schema (same shape as bench_crypto_micro
// --benchmark_format=json plus a "telemetry" snapshot), and
// --trace-out/--metrics-out write chrome://tracing and metric files.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.hpp"
#include "convolve/analysis/aes_sbox.hpp"
#include "convolve/common/parallel.hpp"
#include "convolve/sca/cpa.hpp"
#include "convolve/sca/target.hpp"
#include "convolve/sca/tvla.hpp"

using namespace convolve;
using namespace convolve::sca;

namespace {

constexpr std::uint8_t kKey = 0x3C;
constexpr std::uint32_t kFixedInput = 0x52;

MaskedTraceTarget sbox_target(unsigned order, double sigma) {
  auto masked = masking::mask_circuit(analysis::aes_sbox_circuit(), order);
  return MaskedTraceTarget(std::move(masked), 8,
                           {PowerModel::kHammingWeight, sigma},
                           BitOrder::kMsbFirst);
}

struct Scenario {
  const char* name;
  double seconds = 0;
  std::uint64_t traces = 0;
  double metric_a = 0;  // max |t1|, or best |rho|
  double metric_b = 0;  // max |t2|, or true-key |rho|
  bool pass = false;
  std::string detail;
};

// Plain value of trace i in the TVLA campaigns: fixed for even i, else
// the low byte of the trace stream's first word.
PlainValueFn tvla_values(std::uint32_t fixed) {
  return [fixed](std::uint64_t i, Xoshiro256& rng) {
    return i % 2 == 0 ? fixed
                      : static_cast<std::uint32_t>(rng.next_u64()) & 0xFFu;
  };
}

// The scalar oracle: rng = base.split(i), value = plain(i, rng), then one
// capture() per trace into a trace-major batch. Rows are independent, so
// chunks of 256 traces (TvlaConfig's default grain) share the thread pool
// as the 64-lane campaigns do.
TraceBatch oracle_batch(const MaskedTraceTarget& target, std::uint64_t n,
                        const PlainValueFn& plain, const Xoshiro256& base) {
  TraceBatch batch;
  batch.samples = target.samples();
  batch.n = n;
  const std::size_t samples = static_cast<std::size_t>(batch.samples);
  batch.data.assign(n * samples, 0.0);
  const std::uint64_t n_chunks = par::chunk_count(n, 256);
  par::for_each_chunk(n_chunks, [&](std::uint64_t c) {
    const par::Range r = par::chunk_range(n, n_chunks, c);
    TraceScratch scratch = target.make_scratch();
    for (std::uint64_t i = r.begin; i < r.end; ++i) {
      Xoshiro256 rng = base.split(i);
      const std::uint32_t value = plain(i, rng);
      target.capture(value, rng, scratch,
                     {batch.data.data() + i * samples, samples});
    }
  });
  return batch;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void add_scenario_entry(convolve::bench::Report& report, const Scenario& s) {
  const double ns_per_trace =
      s.traces > 0 ? s.seconds * 1e9 / static_cast<double>(s.traces) : 0;
  auto& e = report.add(std::string("sca/") + s.name);
  e.iterations = s.traces;
  e.real_time_ns = ns_per_trace;
  e.cpu_time_ns = ns_per_trace;
  e.counter("metric_a", s.metric_a);
  e.counter("metric_b", s.metric_b);
  e.counter("pass", s.pass ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = par::init_threads_from_cli(argc, argv);
  convolve::bench::ReportOptions opts;
  double sigma = 1.0;
  int unmasked_traces = 4096;
  int min_unmasked_fail = 5000;
  int min_masked_ratio = 20;
  double min_speedup = 0.0;
  int speedup_traces = 1000000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (convolve::bench::consume_report_flag(arg, opts)) {
      continue;
    } else if (arg.rfind("--sigma=", 0) == 0) {
      sigma = std::stod(arg.substr(8));
    } else if (arg.rfind("--unmasked-traces=", 0) == 0) {
      unmasked_traces = std::stoi(arg.substr(18));
    } else if (arg.rfind("--min-unmasked-fail=", 0) == 0) {
      min_unmasked_fail = std::stoi(arg.substr(20));
    } else if (arg.rfind("--min-masked-ratio=", 0) == 0) {
      min_masked_ratio = std::stoi(arg.substr(19));
    } else if (arg.rfind("--min-speedup=", 0) == 0) {
      min_speedup = std::stod(arg.substr(14));
    } else if (arg.rfind("--speedup-traces=", 0) == 0) {
      speedup_traces = std::stoi(arg.substr(17));
    } else {
      std::fprintf(stderr,
                   "usage: %s %s\n"
                   "          [--sigma=X] [--unmasked-traces=N]\n"
                   "          [--min-unmasked-fail=N] [--min-masked-ratio=N]\n"
                   "          [--min-speedup=X]\n"
                   "          [--speedup-traces=N] [--threads=N]\n",
                   argv[0], convolve::bench::report_flags_usage());
      return 2;
    }
  }
  const TvlaConfig tvla_cfg;
  const CpaConfig cpa_cfg;

  std::vector<Scenario> scenarios;

  // --- Scenario 1: unmasked S-box vs first-order TVLA --------------------
  const auto unmasked = sbox_target(0, sigma);
  auto t0 = std::chrono::steady_clock::now();
  const TvlaReport tvla0 =
      tvla_fixed_vs_random(unmasked, kFixedInput, unmasked_traces, tvla_cfg);
  {
    Scenario s;
    s.name = "tvla_unmasked";
    s.seconds = seconds_since(t0);
    s.traces = static_cast<std::uint64_t>(unmasked_traces);
    s.metric_a = tvla0.max_abs_t1;
    s.metric_b = tvla0.max_abs_t2;
    s.pass = tvla0.traces_to_first_order_fail >= 0 &&
             tvla0.traces_to_first_order_fail <= min_unmasked_fail;
    s.detail = "t1 fail @ " + std::to_string(tvla0.traces_to_first_order_fail);
    scenarios.push_back(std::move(s));
  }

  // --- Scenario 2: unmasked S-box vs CPA key recovery --------------------
  t0 = std::chrono::steady_clock::now();
  const CpaReport cpa0 =
      cpa_sbox_attack(unmasked, kKey, unmasked_traces, cpa_cfg);
  {
    Scenario s;
    s.name = "cpa_unmasked";
    s.seconds = seconds_since(t0);
    s.traces = static_cast<std::uint64_t>(unmasked_traces);
    s.metric_a = cpa0.curve.back().best_corr;
    s.metric_b = cpa0.curve.back().true_key_corr;
    s.pass = cpa0.rank == 0 && cpa0.recovered_key == kKey &&
             cpa0.traces_to_rank0 >= 0;
    s.detail = "rank 0 @ " + std::to_string(cpa0.traces_to_rank0);
    scenarios.push_back(std::move(s));
  }

  // --- Scenario 3: order-1 DOM at >= ratio x the unmasked budget ---------
  // The masked run must hold first order for min_masked_ratio times the
  // trace count that broke the unmasked target, and still fail second
  // order (the order-1 transition, measured).
  const int fail1 =
      tvla0.traces_to_first_order_fail > 0 ? tvla0.traces_to_first_order_fail
                                           : unmasked_traces;
  const int masked_traces = fail1 * min_masked_ratio;
  const auto order1 = sbox_target(1, sigma);
  t0 = std::chrono::steady_clock::now();
  const TvlaReport tvla1 =
      tvla_fixed_vs_random(order1, kFixedInput, masked_traces, tvla_cfg);
  {
    Scenario s;
    s.name = "tvla_order1";
    s.seconds = seconds_since(t0);
    s.traces = static_cast<std::uint64_t>(masked_traces);
    s.metric_a = tvla1.max_abs_t1;
    s.metric_b = tvla1.max_abs_t2;
    s.pass = !tvla1.first_order_leak &&
             tvla1.traces_to_first_order_fail == -1 &&
             tvla1.second_order_leak;
    s.detail = "t1 clean @ " + std::to_string(masked_traces) +
               ", t2 fail @ " +
               std::to_string(tvla1.traces_to_second_order_fail);
    scenarios.push_back(std::move(s));
  }

  // --- Scenario 4: thread-count determinism self-check -------------------
  t0 = std::chrono::steady_clock::now();
  TvlaConfig small = tvla_cfg;
  small.checkpoints = {1024};
  TvlaReport reference;
  {
    par::ScopedThreadCount one(1);
    reference = tvla_fixed_vs_random(order1, kFixedInput, 1024, small);
  }
  bool identical = true;
  for (int threads : {4, 7}) {
    par::ScopedThreadCount scope(threads);
    const TvlaReport rerun =
        tvla_fixed_vs_random(order1, kFixedInput, 1024, small);
    identical &= rerun.t1 == reference.t1 && rerun.t2 == reference.t2;
  }
  {
    Scenario s;
    s.name = "determinism";
    s.seconds = seconds_since(t0);
    s.traces = 3 * 1024;
    s.metric_a = reference.max_abs_t1;
    s.metric_b = reference.max_abs_t2;
    s.pass = identical;
    s.detail = identical ? "bit-identical @ threads 1/4/7" : "DIVERGED";
    scenarios.push_back(std::move(s));
  }

  // --- Scenario 5: 64-lane engine vs the per-trace scalar oracle ---------
  // capture_batch must reproduce a capture() loop over the same split
  // streams on the double buffers themselves -- noisy masked and unmasked
  // targets, a tail block included -- so "close" is not accepted.
  t0 = std::chrono::steady_clock::now();
  bool oracle_identical = true;
  for (const MaskedTraceTarget* target : {&order1, &unmasked}) {
    const Xoshiro256 base(tvla_cfg.seed);
    const PlainValueFn plain = tvla_values(kFixedInput);
    oracle_identical &= capture_batch(*target, 1000, plain, base).data ==
                       oracle_batch(*target, 1000, plain, base).data;
  }
  {
    Scenario s;
    s.name = "lane_diff";
    s.seconds = seconds_since(t0);
    s.traces = 2 * 2 * 1000;
    s.metric_a = static_cast<double>(PowerTraceSimulator::kLanes);
    s.metric_b = 1.0;
    s.pass = oracle_identical;
    s.detail = oracle_identical ? "capture_batch == capture() bit-for-bit"
                               : "ENGINE DIVERGED FROM ORACLE";
    scenarios.push_back(std::move(s));
  }

  // --- Scenario 6: 64-lane throughput on a large noiseless campaign ------
  // The headline claim: a --speedup-traces TVLA campaign on the 64-lane
  // engine, capture and statistics included, against the scalar oracle
  // capturing the same kind of traces one at a time with no statistics
  // at all -- so the ratio understates the engine's lead over any scalar
  // TVLA. Noise is off here: Gaussian noise is inherently lane-serial and
  // would only measure the RNG, not the gate engine.
  {
    const auto quiet = sbox_target(0, 0.0);
    const int scalar_traces =
        std::min(speedup_traces, std::max(1024, speedup_traces / 64));
    t0 = std::chrono::steady_clock::now();
    oracle_batch(quiet, static_cast<std::uint64_t>(scalar_traces),
                 tvla_values(kFixedInput), Xoshiro256(tvla_cfg.seed));
    const double scalar_sec = seconds_since(t0);
    TvlaConfig wide_cfg = tvla_cfg;
    wide_cfg.checkpoints = {speedup_traces};
    t0 = std::chrono::steady_clock::now();
    const TvlaReport tb =
        tvla_fixed_vs_random(quiet, kFixedInput, speedup_traces, wide_cfg);
    const double wide_sec = seconds_since(t0);
    const double scalar_ns =
        scalar_sec * 1e9 / static_cast<double>(scalar_traces);
    const double wide_ns = wide_sec * 1e9 / static_cast<double>(speedup_traces);
    const double speedup = wide_ns > 0 ? scalar_ns / wide_ns : 0.0;
    Scenario s;
    s.name = "tvla_speedup";
    s.seconds = wide_sec;
    s.traces = static_cast<std::uint64_t>(speedup_traces);
    s.metric_a = speedup;
    s.metric_b = wide_ns;
    // The campaign must still see the leak; the gate is the throughput
    // ratio.
    s.pass = (min_speedup <= 0.0 || speedup >= min_speedup) &&
             tb.first_order_leak;
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "%.1fx (%.0f -> %.0f ns/trace, scalar n=%d)", speedup,
                  scalar_ns, wide_ns, scalar_traces);
    s.detail = buf;
    scenarios.push_back(std::move(s));
  }

  bool all_pass = true;
  for (const Scenario& s : scenarios) all_pass &= s.pass;

  convolve::bench::Report report;
  report.executable = argv[0];
  report.threads = threads;
  for (const Scenario& s : scenarios) add_scenario_entry(report, s);
  if (!convolve::bench::finish_report(report, opts)) {
    std::fprintf(stderr, "bench_sca: failed to write report file(s)\n");
    return 2;
  }
  if (!opts.json) {
    std::printf("=== sca lab: TVLA + CPA vs the gate-level AES S-box ===\n");
    std::printf("sigma=%.2f threads=%d\n\n", sigma, par::thread_count());
    std::printf("%-14s %9s %9s %9s %6s  %s\n", "scenario", "traces", "t1|rho",
                "t2|rho_k", "gate", "detail");
    for (const Scenario& s : scenarios) {
      std::printf("%-14s %9llu %9.2f %9.2f %6s  %s\n", s.name,
                  static_cast<unsigned long long>(s.traces), s.metric_a,
                  s.metric_b, s.pass ? "pass" : "FAIL", s.detail.c_str());
    }
    std::printf("\nall gates passed: %s\n", all_pass ? "yes" : "NO");
  }
  return all_pass ? 0 : 1;
}
