// Shared plumbing of the benchmark workloads: options, clocks, process
// counters, nearest-rank percentiles, the result printer, and the in-memory
// span recorder used by the traced runs.
//
// Everything here sits outside the repository's libraries: spans are
// recorded by the benchmark around its calls into each layer's public
// functions, never inside the layers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome-trace file written by traced runs
  int threads = 1;        // service pool size: min(hardware threads, 4)
};

std::uint64_t now_ns();
double now_s();

/// Process-wide counters from getrusage(RUSAGE_SELF).
struct ProcSample {
  double cpu_s = 0;        // user + system CPU seconds
  std::uint64_t minflt = 0;
  double maxrss_mib = 0;   // peak resident set size so far
};
ProcSample proc_sample();

/// Nearest-rank percentile of raw samples (pct in (0, 100]). Sorts a copy.
double percentile(std::vector<double> samples, double pct);
double median(std::vector<double> samples);
double total(const std::vector<double>& samples);

/// A metric by name; its unit comes from BENCHMARK.json (run.py attaches
/// it), so the names and units are defined in one place.
struct Metric {
  std::string name;
  double value = 0;
  std::uint64_t samples = 0;  // sample count behind the value (0 = n/a)
};

/// One workload invocation's outcome. `attempted` counts the operations
/// the run measured, `failed` those whose output or status the oracle
/// rejected. `info` lines are printed for people; `exact` holds values that
/// must repeat bit-for-bit for a seed (the self-test compares them).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> info;
  std::vector<std::pair<std::string, std::string>> exact;

  void add(std::string name, double value, std::uint64_t samples = 0) {
    metrics.push_back({std::move(name), value, samples});
  }
  void add_exact(std::string name, std::string value) {
    exact.emplace_back(std::move(name), std::move(value));
  }
};

/// Human-readable table, the `exact:` line, then the one-line JSON result
/// {correct, attempted, failed, metrics: {name: value}} as the last line of
/// stdout.
void print_result(const Options& opt, const Result& result);

/// Exact textual form of a double (round-trips bit for bit).
std::string exact_double(double v);

/// FNV-1a over byte ranges: the response-payload digest of a run.
class Digest {
 public:
  void add(const void* data, std::size_t len);
  void add_u64(std::uint64_t v) { add(&v, sizeof v); }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// In-memory spans: name, start, end, parent span and request id. A null
/// recorder pointer turns every SpanScope into a no-op, so the untraced
/// and traced replays run the same code.
class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
  };

  explicit SpanRecorder(std::size_t reserve = 1 << 16) {
    spans_.reserve(reserve);
  }

  std::int32_t begin(const char* name, std::uint64_t request);
  void end(std::int32_t index);

  /// Durations in nanoseconds of every span named `name`.
  std::vector<double> durations_ns(const char* name) const;

  /// Per span name: count, total and self time (span time minus the time
  /// its direct children cover), in first-seen order.
  struct LayerTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  std::vector<LayerTime> self_times() const;

  /// Write every span once, as Chrome-trace JSON ("X" events, one thread),
  /// with the request id, parent index and self time as event args.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;  // innermost open span
};

class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name, std::uint64_t request)
      : rec_(rec), index_(rec ? rec->begin(name, request) : -1) {}
  ~SpanScope() {
    if (rec_) rec_->end(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t index_;
};

/// Timed runs are cut into windows of kWindowS timed seconds. Each window
/// yields its throughput, CPU per operation and nearest-rank latency
/// percentiles; a run reports the median over its windows, so a burst of
/// interference from outside the process moves a minority of windows
/// rather than the result. Oracle checks run between windows, with the
/// clock stopped.
inline constexpr double kWindowS = 1.0;

struct WindowStats {
  std::vector<double> rps, cpu_us_per_op, p50_us, p99_us;
  std::uint64_t answered = 0, ops = 0, latency_samples = 0;

  /// One window: `answered` operations completed correctly in `seconds`,
  /// `ops` operations attempted for `cpu_s` process CPU seconds, and the
  /// latencies (us) of the answered operations.
  void add(double seconds, std::uint64_t answered_ops, std::uint64_t all_ops,
           double cpu_s, std::vector<double> latencies_us);

  /// Adds latency_p50_us and cpu_us_per_op as metrics, and throughput_rps
  /// and latency_p99_us as info lines: stalls from load outside the host
  /// move those two run to run by more than any bound the benchmark may
  /// set (see README.md).
  void report(Result& result) const;
};

/// Per-layer metric values of a traced run, by name. A layer the workload
/// does not exercise is left out; run.py reports it as 0.
using LayerValues = std::map<std::string, double>;

/// End of a traced run: adds the per-span-name self-time table to
/// result.info and writes the spans once, as a Chrome trace, to
/// opt.trace_out (a failed write makes the run incorrect).
void finish_traced_run(const Options& opt, const SpanRecorder& rec,
                       Result& result);

// Workload entry points (one process runs exactly one of them).
Result run_service_workload(const Options& opt);
Result run_sca_workload(const Options& opt);

}  // namespace perfbench
