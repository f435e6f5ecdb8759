#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>

namespace perfbench {

using namespace elasticutor;

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  moved_ = pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0 || moved_;
}

void CpuRotation::Restore() {
  if (!moved_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  moved_ = false;
}

double TimedSetups(const Topology& topology, const EngineConfig& config,
                   ThreadProbe* driver, bool traced,
                   std::unique_ptr<Engine>* engine) {
  std::vector<double> seconds;
  CpuRotation rotation;
  for (int i = 0; i < kSetups; ++i) {
    if (i % kSetupsPerCpu == 0) rotation.Next();
    engine->reset();
    const int64_t t0 = NowNs();
    *engine = std::make_unique<Engine>(topology, config);
    ELASTICUTOR_CHECK((*engine)->Setup().ok());
    const int64_t t1 = NowNs();
    seconds.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (traced) driver->AddSpan("Setup", t0, t1);
  }
  // Threads the engine starts later inherit this thread's mask.
  rotation.Restore();
  return MedianOf(seconds);
}

double SegmentQuantileMs(const ProbeSet& probes, double q) {
  std::vector<double> values;
  for (size_t s = 0; s < probes.segments(); ++s) {
    LogHist merged;
    for (const auto& p : probes.all()) merged.Merge(p->segment_latency[s]);
    if (merged.count() >= 100) values.push_back(merged.Quantile(q) / 1e6);
  }
  return MedianOf(values);
}

double BusyImbalance(const std::vector<int64_t>& before,
                     const std::vector<int64_t>& after) {
  if (before.size() != after.size() || after.empty()) return 0.0;
  double sum = 0.0, max = 0.0;
  for (size_t i = 0; i < after.size(); ++i) {
    const double d = static_cast<double>(after[i] - before[i]);
    sum += d;
    max = std::max(max, d);
  }
  return sum > 0.0 ? max / (sum / static_cast<double>(after.size())) : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB.
}

}  // namespace perfbench
