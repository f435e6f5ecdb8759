// Measurement plumbing shared by all paradigms:
//  * ExecutorMetrics — cumulative counters per executor; the scheduler and
//    the RC controller snapshot and diff them each interval to estimate
//    λ_j, µ_j and data intensity.
//  * EngineMetrics — sink throughput/latency (totals, histograms, and per-
//    second time series for the "instantaneous" figures) plus elasticity
//    operation accounting (sync/migration time breakdowns of Fig 8).
//  * OrderValidator — asserts the per-key processing-order invariant.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/rate_meter.h"
#include "engine/ids.h"
#include "sim/time.h"

namespace elasticutor {

struct ExecutorMetrics {
  // Data path (cumulative).
  int64_t arrivals = 0;
  int64_t processed = 0;
  int64_t busy_ns = 0;          // Summed over all tasks/cores.
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;

  // Instantaneous.
  int64_t queued = 0;           // Tuples waiting in all pending queues.

  void Reset() {
    arrivals = processed = busy_ns = bytes_in = bytes_out = 0;
  }
};

/// Deterministic hot-path cost counters over a measurement window (started
/// by EngineMetrics::BeginPerfWindow, normally at the warm-up reset). The
/// per-routed-tuple ratios are exact at a fixed seed/scale, so CI can gate
/// the simulator's per-tuple overheads without flaky wall-clock assertions
/// (bench_core_speed reports both).
struct PerfCounters {
  int64_t routed_tuples = 0;        // Admissions through Runtime routing.
  int64_t events_fired = 0;         // Simulator events executed.
  int64_t heap_events = 0;          // Of those scheduled: via the event
                                    // heap, not a constant-delay lane.
  int64_t callback_heap_allocs = 0; // EventFn inline-storage misses.
  int64_t messages_sent = 0;        // Network messages (batches count once).

  double events_per_tuple() const { return Ratio(events_fired); }
  double heap_events_per_tuple() const { return Ratio(heap_events); }
  double heap_allocs_per_tuple() const { return Ratio(callback_heap_allocs); }
  double messages_per_tuple() const { return Ratio(messages_sent); }

 private:
  double Ratio(int64_t count) const {
    return routed_tuples > 0
               ? static_cast<double>(count) /
                     static_cast<double>(routed_tuples)
               : 0.0;
  }
};

/// One elasticity operation (shard reassignment / RC repartition) breakdown.
/// The routing-pause window decomposes as pause_ns = sync_ns + migration_ns;
/// under chunked-live migration most of the state moves during precopy_ns,
/// while processing continues, and only delta_bytes ship inside the pause.
struct ElasticityOp {
  bool inter_node = false;
  SimDuration sync_ns = 0;       // Drain / coordination inside the pause.
  SimDuration precopy_ns = 0;    // Live pre-copy (processing continues).
  SimDuration migration_ns = 0;  // State transfer inside the pause.
  SimDuration pause_ns = 0;      // Total routing-pause window.
  int64_t moved_bytes = 0;       // Total state shipped (pre-copy + delta).
  int64_t delta_bytes = 0;       // Shipped inside the pause window.
};

class EngineMetrics {
 public:
  EngineMetrics()
      : sink_throughput_(kNanosPerSecond), sink_latency_sum_(kNanosPerSecond),
        sink_latency_count_(kNanosPerSecond) {}

  /// Records the completion of a tuple at a sink operator.
  void OnSinkTuple(SimTime now, SimTime created_at) {
    ++sink_count_;
    latency_.Record(now - created_at);
    sink_throughput_.Add(now, 1.0);
    sink_latency_sum_.Add(now, static_cast<double>(now - created_at));
    sink_latency_count_.Add(now, 1.0);
  }

  void OnElasticityOp(const ElasticityOp& op) { ops_.push_back(op); }

  /// Called by the runtime for every admitted (routed) tuple; `n` > 1 when a
  /// micro-batch routes several tuples in one message.
  void OnTuplesRouted(int64_t n) { routed_tuples_ += n; }
  int64_t routed_tuples() const { return routed_tuples_; }

  /// Starts a perf-counter window: subsequent PerfWindow() calls report
  /// deltas from this point. The simulator/EventFn totals are passed in
  /// because they live below the engine layer; Network messages are windowed
  /// by Network::ResetCounters (performed by the same warm-up reset).
  void BeginPerfWindow(int64_t events_now, int64_t heap_events_now,
                       int64_t heap_allocs_now) {
    routed_tuples_ = 0;
    perf_events_base_ = events_now;
    perf_heap_events_base_ = heap_events_now;
    perf_allocs_base_ = heap_allocs_now;
  }
  PerfCounters PerfWindow(int64_t events_now, int64_t heap_events_now,
                          int64_t heap_allocs_now,
                          int64_t messages_since_reset) const {
    PerfCounters perf;
    perf.routed_tuples = routed_tuples_;
    perf.events_fired = events_now - perf_events_base_;
    perf.heap_events = heap_events_now - perf_heap_events_base_;
    perf.callback_heap_allocs = heap_allocs_now - perf_allocs_base_;
    perf.messages_sent = messages_since_reset;
    return perf;
  }

  /// Attributes task busy time to the node it ran on (straggler/failover
  /// scenarios report where the cluster's processing actually happened).
  void OnBusy(int32_t node, SimDuration ns) {
    if (node >= static_cast<int32_t>(busy_ns_by_node_.size())) {
      busy_ns_by_node_.resize(node + 1, 0);
    }
    busy_ns_by_node_[node] += ns;
  }

  /// Cumulative busy ns per node since the last warm-up reset. Nodes that
  /// never ran a task may be absent (treat as zero).
  const std::vector<int64_t>& busy_ns_by_node() const {
    return busy_ns_by_node_;
  }

  /// Bulk merges used by the native runtime AFTER its threads joined: the
  /// native data path keeps per-worker counters and sink-latency histograms
  /// (no shared mutable metrics while running) and folds them in once, so
  /// EngineMetrics itself stays single-threaded on every backend. Time
  /// series remain simulator-only (timing columns); latency() is valid on
  /// both backends — post-drain only on the native one.
  void MergeSinkCount(int64_t n) { sink_count_ += n; }
  void MergeLatency(const Histogram& h) { latency_.Merge(h); }

  int64_t sink_count() const { return sink_count_; }
  const Histogram& latency() const { return latency_; }
  const TimeSeries& sink_throughput_series() const { return sink_throughput_; }
  const TimeSeries& latency_sum_series() const { return sink_latency_sum_; }
  const TimeSeries& latency_count_series() const {
    return sink_latency_count_;
  }
  const std::vector<ElasticityOp>& elasticity_ops() const { return ops_; }

  /// Mean sink throughput (tuples/s) between two instants.
  double MeanThroughput(SimTime from, SimTime to) const {
    if (to <= from) return 0.0;
    return static_cast<double>(sink_count_in_window(from, to)) /
           ToSeconds(to - from);
  }

  int64_t sink_count_in_window(SimTime from, SimTime to) const;

  /// Clears counters/histograms (benches call after warm-up). Time series
  /// are kept (they are globally binned).
  void ResetAfterWarmup() {
    sink_count_ = 0;
    latency_.Reset();
    ops_.clear();
    busy_ns_by_node_.clear();
    routed_tuples_ = 0;
  }

 private:
  int64_t sink_count_ = 0;
  int64_t routed_tuples_ = 0;
  int64_t perf_events_base_ = 0;
  int64_t perf_heap_events_base_ = 0;
  int64_t perf_allocs_base_ = 0;
  Histogram latency_;
  TimeSeries sink_throughput_;
  TimeSeries sink_latency_sum_;
  TimeSeries sink_latency_count_;
  std::vector<ElasticityOp> ops_;
  std::vector<int64_t> busy_ns_by_node_;
};

/// Checks that tuples of the same key are processed in arrival order at each
/// operator, across shard reassignments and repartitionings (§2.1's "basic
/// requirement in stateful computation").
class OrderValidator {
 public:
  /// Assigns the arrival sequence number for (op, key).
  uint64_t OnArrive(OperatorId op, uint64_t key) {
    return ++arrival_seq_[Slot(op, key)];
  }

  /// Validates processing order; increments `violations` on error.
  void OnProcess(OperatorId op, uint64_t key, uint64_t seq) {
    uint64_t& last = processed_seq_[Slot(op, key)];
    if (seq != last + 1) {
      ++violations_;
    }
    last = seq;
  }

  int64_t violations() const { return violations_; }

 private:
  static uint64_t Slot(OperatorId op, uint64_t key) {
    return (static_cast<uint64_t>(op) << 48) ^ key;
  }

  std::unordered_map<uint64_t, uint64_t> arrival_seq_;
  std::unordered_map<uint64_t, uint64_t> processed_seq_;
  int64_t violations_ = 0;
};

}  // namespace elasticutor
