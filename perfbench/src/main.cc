// Benchmark driver. Runs one workload for a measured window and prints, as
// its last line, one JSON object with the correctness verdict and every
// metric it measured (run.py selects the end-to-end or per-layer set named
// in BENCHMARK.json).
//
//   perfbench --workload <saturate|skew-shift|rotation|sim-omega16>
//             --seed <n> --seconds <s> [--trace 0|1] [--trace-out <file>]
//             [--static]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<saturate|skew-shift|rotation|sim-omega16> --seed <n> "
               "--seconds <s> [--trace 0|1] [--trace-out <file>] [--static]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--static") == 0) {
      opt.static_paradigm = true;
    } else if (!has_value) {
      return Usage("missing value");
    } else if (std::strcmp(a, "--workload") == 0) {
      opt.workload = argv[++i];
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(a, "--trace") == 0) {
      opt.traced = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(a, "--trace-out") == 0) {
      opt.trace_path = argv[++i];
    } else {
      return Usage("unknown argument");
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) return Usage("bad --seconds");

  perfbench::Report r;
  if (opt.workload == "sim-omega16") {
    r = perfbench::RunSim(opt);
  } else if (opt.workload == "saturate" || opt.workload == "skew-shift" ||
             opt.workload == "rotation") {
    r = perfbench::RunNative(opt);
  } else {
    return Usage("unknown workload");
  }

  for (const auto& [name, value] : r.metrics) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      r.correct = false;
      r.metrics[name] = -1.0;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"values\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
