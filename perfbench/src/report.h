// What one benchmark run hands back to main: the correctness verdict and
// every metric it measured, by the names BENCHMARK.json uses.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Where the traced run writes its Chrome trace (empty = nowhere).
  std::string trace_path;
  /// Run the native workload under the static paradigm (reference runs).
  bool static_paradigm = false;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
};

/// The native workloads: saturate, skew-shift, rotation.
Report RunNative(const Options& options);
/// The simulator workload: sim-omega16.
Report RunSim(const Options& options);

}  // namespace perfbench
