// The four perf-ledger workloads (README.md has why each exists). Each run
// repeats its workload until --seconds have passed, checks every
// repetition's output, and reduces the repetitions to medians.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";  ///< repository checkout (scenario files live here)
  std::string bin_dir;     ///< where the perfbench build put neptuned_probed
  std::string work_dir;    ///< scratch space inside the checkout
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;  ///< end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> notes;         ///< human-readable context lines
};

/// Run one workload. Throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunConfig& cfg);

}  // namespace perfbench
