// Constant-time lint driver: runs every taint-tracking suite over the
// production crypto templates and prints a verdict per algorithm.
//
// Usage: ct_lint [suite...]
//   suite...   restrict to the named suites (default: all).
// Exit status: 0 when every selected suite is clean (no hazard recorded and
// output identical to production), 1 when any is not, 2 on bad usage (an
// option, or a name that is no suite).
#include <cstdio>
#include <set>
#include <string>

#include "convolve/analysis/ct_taint.hpp"

int main(int argc, char** argv) {
  std::set<std::string> only;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "ct_lint: unknown option '%s'\n", argv[i]);
      std::fprintf(stderr, "usage: ct_lint [suite...]\n");
      return 2;
    }
    only.insert(argv[i]);
  }

  const auto results = convolve::analysis::lint_all();
  // A filter naming no real suite must not silently pass the gate.
  for (const auto& name : only) {
    bool known = false;
    for (const auto& r : results) known = known || r.suite == name;
    if (!known) {
      std::fprintf(stderr, "ct_lint: unknown suite '%s'\n", name.c_str());
      return 2;
    }
  }

  int failures = 0;
  for (const auto& r : results) {
    if (!only.empty() && only.count(r.suite) == 0) continue;
    std::printf("%-14s %s  output=%s  hazards=%llu\n", r.suite.c_str(),
                r.clean() ? "CLEAN " : "FAILED",
                r.output_matches ? "match" : "MISMATCH",
                static_cast<unsigned long long>(r.hazard_count));
    for (const auto& f : r.findings) {
      std::printf("    %-28s x%-8llu at %s\n",
                  convolve::analysis::hazard_name(f.kind),
                  static_cast<unsigned long long>(f.count), f.context.c_str());
    }
    if (!r.clean()) ++failures;
  }
  if (failures != 0) {
    std::printf("ct_lint: %d suite(s) not constant-time\n", failures);
    return 1;
  }
  std::printf("ct_lint: all suites constant-time\n");
  return 0;
}
