// Default report checkpoints shared by the TVLA and CPA campaigns (private
// to src/sca).
#pragma once

#include <vector>

namespace convolve::sca {

/// Geometric trace counts 256, 512, ... below n_traces, then n_traces.
inline std::vector<int> default_checkpoints(int n_traces) {
  std::vector<int> cps;
  for (int c = 256; c < n_traces; c *= 2) cps.push_back(c);
  cps.push_back(n_traces);
  return cps;
}

}  // namespace convolve::sca
