// Workload program of the repository benchmark: runs one workload in this
// process and prints its metrics, the last stdout line being one JSON
// object {correct, attempted, failed, metrics}.
//
//   perfbench_workload --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> [--trace-out <file>]
//
// Workloads: run_short, run_cow, mixed_tenants, sca_campaign. --trace 0
// measures the end-to-end metrics; --trace 1 replays a fixed seeded stream
// with spans around every call into a layer and prints the per-layer
// metrics (and writes the spans as a Chrome trace to --trace-out).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>

#include "convolve/common/parallel.hpp"
#include "harness.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload run_short|run_cow|mixed_tenants|"
               "sca_campaign --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (argc % 2 != 1 || opt.workload.empty() || !(opt.seconds > 0)) {
    return usage(argv[0]);
  }
  opt.threads = std::min(convolve::par::hardware_threads(), 4);
  convolve::par::set_thread_count(opt.threads);

  perfbench::Result result;
  try {
    if (opt.workload == "sca_campaign") {
      result = perfbench::run_sca_workload(opt);
    } else if (opt.workload == "run_short" || opt.workload == "run_cow" ||
               opt.workload == "mixed_tenants") {
      result = perfbench::run_service_workload(opt);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 1;
  }
  perfbench::print_result(opt, result);
  return result.correct ? 0 : 1;
}
