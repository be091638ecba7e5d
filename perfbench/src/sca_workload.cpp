// sca_campaign: side-channel evaluation of the AES S-box, end to end.
//
// One campaign is a fixed-vs-random TVLA of kTvlaTraces traces on the
// order-1 DOM-masked S-box (64-lane bitsliced engine), then a CPA of
// kCpaTraces traces on the unmasked S-box. Set-up builds both targets
// (mask_circuit + trace simulator). The fixed input, the CPA key and both
// campaign seeds are drawn from the benchmark seed, and every campaign of
// a run repeats the same seeded campaign, so each one must reproduce the
// first report bit for bit as well as pass its verdict: order-1 t1 clean
// (max |t1| <= 4.5), and the unmasked CPA ranks the true key first.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "convolve/analysis/aes_sbox.hpp"
#include "convolve/common/rng.hpp"
#include "convolve/masking/circuit.hpp"
#include "convolve/sca/cpa.hpp"
#include "convolve/sca/tvla.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using namespace convolve;
using namespace convolve::sca;

constexpr int kTvlaTraces = 4096;
constexpr int kCpaTraces = 4096;
constexpr double kNoiseSigma = 1.0;

struct Targets {
  std::unique_ptr<MaskedTraceTarget> order1;    // DOM, TVLA target
  std::unique_ptr<MaskedTraceTarget> unmasked;  // order 0, CPA target
};

Targets build_targets(SpanRecorder* rec) {
  SpanScope setup(rec, "setup", 0);
  const masking::Circuit sbox = analysis::aes_sbox_circuit();
  Targets t;
  for (unsigned order : {1u, 0u}) {
    masking::MaskedCircuit masked;
    {
      SpanScope s(rec, "mask_circuit", order);
      masked = masking::mask_circuit(sbox, order);
    }
    auto target = std::make_unique<MaskedTraceTarget>(
        std::move(masked), 8, TraceConfig{PowerModel::kHammingWeight,
                                          kNoiseSigma},
        BitOrder::kMsbFirst);
    (order == 1 ? t.order1 : t.unmasked) = std::move(target);
  }
  return t;
}

struct Campaign {
  std::uint32_t fixed_value = 0;
  std::uint8_t key = 0;
  TvlaConfig tvla;
  CpaConfig cpa;
};

Campaign make_campaign(std::uint64_t seed) {
  Xoshiro256 g(seed);
  Campaign c;
  c.fixed_value = static_cast<std::uint32_t>(g.uniform(256));
  c.key = static_cast<std::uint8_t>(g.uniform(256));
  c.tvla.seed = g.next_u64();
  c.tvla.checkpoints = {kTvlaTraces};
  c.cpa.seed = g.next_u64();
  c.cpa.checkpoints = {kCpaTraces};
  return c;
}

struct Outcome {
  double max_t1 = 0, max_t2 = 0, best_corr = 0;
  int rank = 255;
  int recovered = -1;
};

bool same(const Outcome& a, const Outcome& b) {
  return a.max_t1 == b.max_t1 && a.max_t2 == b.max_t2 &&
         a.best_corr == b.best_corr && a.rank == b.rank &&
         a.recovered == b.recovered;
}

Outcome run_campaign(const Targets& t, const Campaign& c, SpanRecorder* rec,
                     std::uint64_t id) {
  SpanScope campaign(rec, "campaign", id);
  Outcome o;
  {
    SpanScope s(rec, "tvla", id);
    const TvlaReport r =
        tvla_fixed_vs_random(*t.order1, c.fixed_value, kTvlaTraces, c.tvla);
    o.max_t1 = r.max_abs_t1;
    o.max_t2 = r.max_abs_t2;
  }
  {
    SpanScope s(rec, "cpa", id);
    const CpaReport r = cpa_sbox_attack(*t.unmasked, c.key, kCpaTraces, c.cpa);
    o.rank = r.rank;
    o.recovered = r.recovered_key;
    o.best_corr = r.curve.empty() ? 0.0 : r.curve.back().best_corr;
  }
  return o;
}

// The verdicts the lab must reach on these targets.
bool verdict_ok(const Campaign& c, const Outcome& o) {
  return o.max_t1 <= 4.5 && o.rank == 0 && o.recovered == c.key;
}

Result untraced(const Options& opt) {
  Result res;
  // Set-up is timed several times at the start and after every window, so
  // its median samples the whole run rather than its first moments.
  std::vector<double> setup_s;
  auto timed_setup = [&setup_s] {
    const double t0 = now_s();
    Targets t = build_targets(nullptr);
    setup_s.push_back(now_s() - t0);
    return t;
  };
  Targets targets;
  for (int i = 0; i < 5; ++i) targets = timed_setup();
  const Campaign c = make_campaign(opt.seed);

  // Warm-up; its first campaign is the reference every later one must
  // reproduce.
  const Outcome ref = run_campaign(targets, c, nullptr, 0);
  bool correct = verdict_ok(c, ref);
  const double warmup_s = std::clamp(opt.seconds / 5, 0.5, 2.0);
  for (double t0 = now_s(); now_s() - t0 < warmup_s;) {
    correct = same(run_campaign(targets, c, nullptr, 0), ref) && correct;
  }

  // Timed run, window by window (see WindowStats); a campaign is one
  // operation for latency, and CPU is reported per trace.
  constexpr double kTracesPerCampaign = kTvlaTraces + kCpaTraces;
  WindowStats stats;
  double timed_s = 0;
  std::uint64_t failed = 0;
  while (timed_s < opt.seconds) {
    const double len = std::min(kWindowS, opt.seconds - timed_s);
    std::vector<double> latency_us;
    std::vector<Outcome> outcomes;
    const ProcSample p0 = proc_sample();
    const double t0 = now_s();
    double t = t0;
    while (t - t0 < len) {
      outcomes.push_back(run_campaign(targets, c, nullptr, outcomes.size()));
      const double t1 = now_s();
      latency_us.push_back((t1 - t) * 1e6);
      t = t1;
    }
    const double cpu_s = proc_sample().cpu_s - p0.cpu_s;
    timed_s += t - t0;
    std::uint64_t win_failed = 0;
    for (const Outcome& o : outcomes) {
      if (!same(o, ref) || !verdict_ok(c, o)) ++win_failed;
    }
    failed += win_failed;
    for (int i = 0; i < 5; ++i) timed_setup();
    const auto n = static_cast<std::uint64_t>(outcomes.size());
    stats.add(t - t0, n - win_failed,
              static_cast<std::uint64_t>(static_cast<double>(n) *
                                         kTracesPerCampaign),
              cpu_s, std::move(latency_us));
  }
  const ProcSample end = proc_sample();

  const double campaigns = static_cast<double>(stats.latency_samples);
  res.attempted = stats.latency_samples;
  res.failed = failed;
  res.correct = correct && failed == 0;
  res.add("setup_s", median(setup_s), setup_s.size());
  stats.report(res);
  res.add("peak_rss_mib", end.maxrss_mib);
  char line[240];
  std::snprintf(line, sizeof line,
                "traces_per_s %.1f (1/s, median over windows)  error_ratio "
                "%.6f  campaigns %llu "
                "of %d TVLA + %d CPA traces  timed %.3f s",
                median(stats.rps) * kTracesPerCampaign,
                static_cast<double>(failed) / campaigns,
                static_cast<unsigned long long>(stats.latency_samples),
                kTvlaTraces,
                kCpaTraces, timed_s);
  res.info.push_back(line);
  std::snprintf(line, sizeof line,
                "verdicts: max|t1| %.3f (clean <= 4.5), max|t2| %.3f, "
                "CPA rank %d, key 0x%02x recovered 0x%02x",
                ref.max_t1, ref.max_t2, ref.rank, c.key, ref.recovered);
  res.info.push_back(line);
  return res;
}

Result traced(const Options& opt) {
  Result res;
  SpanRecorder rec;
  Targets t;
  for (int i = 0; i < 3; ++i) t = build_targets(&rec);
  const Campaign c = make_campaign(opt.seed);
  constexpr int kCampaigns = 24;

  // Warm-up, then two rounds of the same campaigns untraced and traced.
  const Outcome ref = run_campaign(t, c, nullptr, 0);
  for (int i = 0; i < kCampaigns / 2; ++i) run_campaign(t, c, nullptr, i);
  std::uint64_t failed = verdict_ok(c, ref) ? 0 : 1;
  double untraced_s = 0, traced_s = 0, traced_cpu_s = 0;
  std::uint64_t untraced_minflt = 0;
  for (int round = 0; round < 2; ++round) {
    const ProcSample u0 = proc_sample();
    const double tu0 = now_s();
    for (int i = 0; i < kCampaigns; ++i) run_campaign(t, c, nullptr, i);
    untraced_s += now_s() - tu0;
    const ProcSample u1 = proc_sample();
    untraced_minflt += u1.minflt - u0.minflt;
    const double tt0 = now_s();
    for (int i = 0; i < kCampaigns; ++i) {
      if (!same(run_campaign(t, c, &rec, i), ref)) ++failed;
    }
    traced_s += now_s() - tt0;
    traced_cpu_s += proc_sample().cpu_s - u1.cpu_s;
  }

  LayerValues v;
  v["masking.mask_circuit_ms"] =
      median(rec.durations_ns("mask_circuit")) * 1e-6;
  v["sca.tvla_ns_per_trace"] =
      total(rec.durations_ns("tvla")) / (2.0 * kCampaigns * kTvlaTraces);
  v["sca.cpa_ns_per_trace"] =
      total(rec.durations_ns("cpa")) / (2.0 * kCampaigns * kCpaTraces);
  v["os.minflt_per_req"] =
      static_cast<double>(untraced_minflt) / (2.0 * kCampaigns);
  v["os.cpu_util"] = traced_cpu_s / (traced_s * opt.threads);
  v["trace.overhead_ratio"] = traced_s / untraced_s;
  for (const auto& [name, value] : v) res.add(name, value);

  res.attempted = 2 * kCampaigns + 1;
  res.failed = failed;
  res.correct = failed == 0;
  char line[200];
  std::snprintf(line, sizeof line,
                "2 x %d campaigns: untraced %.3f s, traced %.3f s", kCampaigns,
                untraced_s, traced_s);
  res.info.push_back(line);
  finish_traced_run(opt, rec, res);
  res.add_exact("tvla.max_abs_t1", exact_double(ref.max_t1));
  res.add_exact("tvla.max_abs_t2", exact_double(ref.max_t2));
  res.add_exact("cpa.best_corr", exact_double(ref.best_corr));
  res.add_exact("cpa.rank", std::to_string(ref.rank));
  return res;
}

}  // namespace

Result run_sca_workload(const Options& opt) {
  return opt.trace ? traced(opt) : untraced(opt);
}

}  // namespace perfbench
