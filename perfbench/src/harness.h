// Helpers both run files share: timed engine set-up, per-segment latency
// quantiles, CPU rotation of the calling thread, and peak memory.
#pragma once

#include <memory>
#include <vector>

#include "elasticutor/elasticutor.h"
#include "probe.h"

namespace perfbench {

/// Engine set-ups one run times (setup_s is their median), in groups of
/// kSetupsPerCpu on each CPU in turn.
constexpr int kSetups = 24;
constexpr int kSetupsPerCpu = 6;

/// Constructs and sets up an engine kSetups times and keeps the last one in
/// `*engine`. The calling thread visits the CPUs it may run on in turn (the
/// vCPUs of a shared host differ in speed), then gets its CPU mask back.
/// Returns the median set-up time in seconds.
double TimedSetups(const elasticutor::Topology& topology,
                   const elasticutor::EngineConfig& config,
                   ThreadProbe* driver, bool traced,
                   std::unique_ptr<elasticutor::Engine>* engine);

/// Median over window segments of each segment's latency quantile `q`, in
/// ms; segments with fewer than 100 samples are skipped.
double SegmentQuantileMs(const ProbeSet& probes, double q);

/// Median of per-segment rates: `counts[i]` events seen at `times_ns[i]`,
/// grouped into segments of `segment_ns` starting at times_ns[0], divided by
/// `seconds_of(segment start, segment end)`.
template <typename SecondsOf>
double MedianSegmentRate(const std::vector<int64_t>& times_ns,
                         const std::vector<int64_t>& counts,
                         int64_t segment_ns, SecondsOf seconds_of) {
  std::vector<double> rates;
  size_t begin = 0;
  for (size_t i = 1; i < times_ns.size(); ++i) {
    if (times_ns[i] - times_ns[begin] < segment_ns) continue;
    const double s = seconds_of(begin, i);
    if (s > 0.0) rates.push_back(static_cast<double>(counts[i] - counts[begin]) / s);
    begin = i;
  }
  return MedianOf(rates);
}

/// Max over mean of the per-worker busy-time growth between two samples
/// (0 when nothing ran or the worker sets differ).
double BusyImbalance(const std::vector<int64_t>& before,
                     const std::vector<int64_t>& after);

/// Pins the calling thread to the next CPU of its original mask (call again
/// to move on); Restore() gives the original mask back.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void Next();
  void Restore();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
  bool moved_ = false;
};

/// Peak resident set of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench
