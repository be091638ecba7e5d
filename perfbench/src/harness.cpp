#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

ProcSample proc_sample() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  s.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  s.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return s;
}

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  // Nearest rank: the smallest sample with at least pct% of samples <= it.
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

double total(const std::vector<double>& samples) {
  double sum = 0;
  for (double x : samples) sum += x;
  return sum;
}

void WindowStats::add(double seconds, std::uint64_t answered_ops,
                      std::uint64_t all_ops, double cpu_s,
                      std::vector<double> latencies_us) {
  rps.push_back(static_cast<double>(answered_ops) / seconds);
  cpu_us_per_op.push_back(cpu_s * 1e6 / static_cast<double>(all_ops));
  latency_samples += latencies_us.size();
  p50_us.push_back(percentile(latencies_us, 50));
  p99_us.push_back(percentile(std::move(latencies_us), 99));
  answered += answered_ops;
  ops += all_ops;
}

void WindowStats::report(Result& result) const {
  result.add("latency_p50_us", median(p50_us), latency_samples);
  result.add("cpu_us_per_op", median(cpu_us_per_op), ops);
  char line[160];
  std::snprintf(line, sizeof line,
                "throughput_rps %.1f 1/s n=%llu (median of %zu windows; "
                "printed, not gated)",
                median(rps), static_cast<unsigned long long>(answered),
                rps.size());
  result.info.push_back(line);
  std::snprintf(line, sizeof line,
                "latency_p99_us %.3f us n=%llu (median of %zu window p99s; "
                "printed, not gated)",
                median(p99_us), static_cast<unsigned long long>(latency_samples),
                p99_us.size());
  result.info.push_back(line);
}

std::string exact_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Digest::add(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void print_result(const Options& opt, const Result& result) {
  std::printf("workload %s  seed %llu  %s run  threads %d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced", opt.threads);
  for (const std::string& line : result.info) {
    std::printf("  %s\n", line.c_str());
  }
  for (const Metric& m : result.metrics) {
    if (m.samples > 0) {
      std::printf("  %-28s %14.6g  n=%llu\n", m.name.c_str(), m.value,
                  static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-28s %14.6g\n", m.name.c_str(), m.value);
    }
  }
  std::printf("  attempted %llu  failed %llu  correct %s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.correct ? "yes" : "NO");
  if (!result.exact.empty()) {
    std::printf("exact:");
    for (const auto& [name, value] : result.exact) {
      std::printf(" %s=%s", name.c_str(), value.c_str());
    }
    std::printf("\n");
  }

  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string metrics;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) finite = false;
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": " +
               exact_double(std::isfinite(m.value) ? m.value : 0.0);
  }
  json += (result.correct && finite) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::int32_t SpanRecorder::begin(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.parent = open_;
  s.request = request;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  open_ = index;
  spans_.back().start_ns = now_ns();
  return index;
}

void SpanRecorder::end(std::int32_t index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  open_ = s.parent;
}

std::vector<double> SpanRecorder::durations_ns(const char* name) const {
  std::vector<double> out;
  const std::string key = name;
  for (const Span& s : spans_) {
    if (key == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

namespace {

// Child-covered time per span. Spans are recorded on one thread and
// properly nested, so a span's direct children never overlap each other.
std::vector<double> child_time(const std::vector<SpanRecorder::Span>& spans) {
  std::vector<double> covered(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return covered;
}

}  // namespace

std::vector<SpanRecorder::LayerTime> SpanRecorder::self_times() const {
  const std::vector<double> covered = child_time(spans_);
  std::vector<LayerTime> out;
  std::unordered_map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = slot.try_emplace(s.name, out.size());
    if (fresh) out.push_back({s.name, 0, 0, 0});
    LayerTime& lt = out[it->second];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    ++lt.count;
    lt.total_ns += dur;
    lt.self_ns += dur - covered[i];
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::vector<double> covered = child_time(spans_);
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %llu, "
                 "\"parent\": %d, \"self_us\": %.3f}}",
                 i == 0 ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns - t0) * 1e-3, dur * 1e-3,
                 static_cast<unsigned long long>(s.request), s.parent,
                 (dur - covered[i]) * 1e-3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void finish_traced_run(const Options& opt, const SpanRecorder& rec,
                       Result& result) {
  const auto layers = rec.self_times();
  double all_self = 0;
  for (const auto& lt : layers) all_self += lt.self_ns;
  result.info.push_back("span self time (span minus child spans):");
  for (const auto& lt : layers) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %-16s n=%-7llu total %10.3f ms  self %10.3f ms  %5.1f%%",
                  lt.name.c_str(), static_cast<unsigned long long>(lt.count),
                  lt.total_ns * 1e-6, lt.self_ns * 1e-6,
                  all_self > 0 ? 100.0 * lt.self_ns / all_self : 0.0);
    result.info.push_back(line);
  }
  if (!opt.trace_out.empty() && !rec.write_chrome_trace(opt.trace_out)) {
    result.correct = false;
    result.info.push_back("could not write " + opt.trace_out);
  }
}

}  // namespace perfbench
