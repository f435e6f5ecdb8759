// Measurement plumbing of the benchmark, kept out of the library: the clock,
// an interpolating log-bucketed histogram, the per-thread probes that the
// source factory and the operator logic write into, and the span recorder of
// the traced run (written out as Chrome trace-event JSON at the end).
//
// Every probe is owned by one thread while the dataflow runs and read by the
// driver only after the engine drained (thread joins order the accesses).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic ns (CLOCK_MONOTONIC, the clock steady_clock reads on Linux).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Log-bucketed histogram (32 sub-buckets per power of two, ~3% bucket
/// width) whose quantiles interpolate linearly inside the bucket, so a
/// reported percentile keeps all its digits instead of snapping to a bucket
/// midpoint.
class LogHist {
 public:
  void Record(int64_t v) {
    ++buckets_[Index(v < 0 ? 0 : static_cast<uint64_t>(v))];
    ++count_;
  }
  void Merge(const LogHist& o) {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  int64_t count() const { return count_; }

  /// Value at quantile q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
    double before = 0.0;
    for (int i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(buckets_[i]);
      if (c == 0.0) continue;
      if (before + c >= target) {
        const double frac = std::clamp((target - before) / c, 0.0, 1.0);
        return static_cast<double>(Lower(i)) +
               frac * static_cast<double>(Width(i));
      }
      before += c;
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  static int Index(uint64_t v) {
    if (v < static_cast<uint64_t>(kSub)) return static_cast<int>(v);
    const int shift = (63 - std::countl_zero(v)) - kSubBits;
    return (shift + 1) * kSub + static_cast<int>((v >> shift) - kSub);
  }
  static uint64_t Lower(int i) {
    if (i < kSub) return static_cast<uint64_t>(i);
    const int shift = i / kSub - 1;
    return static_cast<uint64_t>(i % kSub + kSub) << shift;
  }
  static uint64_t Width(int i) {
    return i < kSub ? 1 : uint64_t{1} << (i / kSub - 1);
  }

  std::vector<int64_t> buckets_ = std::vector<int64_t>(kBuckets, 0);
  int64_t count_ = 0;
};

/// Median and quartiles of a sample (copies; fine for driver-side lists).
inline double QuantileOf(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double MedianOf(std::vector<double> v) { return QuantileOf(std::move(v), 0.5); }

/// One recorded span. `id` names it for cause links; `cause` is the id of
/// the span that caused it (0 = none). Tuple spans use the tuple's index
/// (plus one) as their id, so the factory span of a tuple is the cause of
/// its logic span on another thread.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t cause = 0;
};

/// The state one thread accumulates during a run.
struct ThreadProbe {
  std::string name;
  int tid = 0;
  // Sink side (operator logic), measured window only.
  LogHist latency;    // Due (open loop) or creation -> end of logic.
  std::vector<LogHist> segment_latency;  // The same, per window segment.
  LogHist transit;    // Factory return -> logic entry (traced run).
  int64_t seq_errors = 0;       // Lost, duplicated or reordered tuples.
  int64_t logic_calls = 0;      // Traced run: calls timed.
  int64_t logic_ns = 0;         // Traced run: logic minus the lookup.
  int64_t lookup_ns = 0;        // Traced run: StateAccessor::GetOrCreate.
  /// Per-millisecond completion counts of the measured window (total and
  /// over the latency limit), for windowed p99 after the run.
  std::vector<uint32_t> bin_total;
  std::vector<uint32_t> bin_over;
  // Source side.
  LogHist lag;                  // Open loop: emission - due.
  int64_t keygen_calls = 0;     // Traced run: factory bodies timed.
  int64_t keygen_ns = 0;
  int64_t emit_gaps = 0;        // Traced run: factory return -> next entry.
  int64_t emit_ns = 0;
  // Spans (traced run), preallocated; overflow is counted, not grown.
  std::vector<Span> spans;
  int64_t spans_dropped = 0;

  void AddSpan(const char* n, int64_t s, int64_t e, int64_t id = 0,
               int64_t cause = 0) {
    if (spans.size() < spans.capacity()) {
      spans.push_back(Span{n, s, e, id, cause});
    } else {
      ++spans_dropped;
    }
  }
};

/// Registry of the threads' probes for one run. Threads register lazily on
/// first use; the driver registers itself explicitly.
class ProbeSet {
 public:
  /// `bins`: 1 ms completion bins; `segments`: per-segment latency
  /// histograms (both over the measured window).
  ProbeSet(bool traced, size_t bins, size_t segments, size_t span_capacity)
      : traced_(traced), bins_(bins), segments_(segments),
        span_capacity_(span_capacity), generation_(NextGeneration()) {}
  ProbeSet(const ProbeSet&) = delete;
  ProbeSet& operator=(const ProbeSet&) = delete;

  /// The calling thread's probe (registers it on first use).
  ThreadProbe* Local(const char* name) {
    thread_local ThreadProbe* cached = nullptr;
    thread_local uint64_t cached_generation = 0;
    if (cached_generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      auto p = std::make_unique<ThreadProbe>();
      p->name = name;
      p->tid = static_cast<int>(probes_.size()) + 1;
      p->bin_total.assign(bins_, 0);
      p->bin_over.assign(bins_, 0);
      p->segment_latency.resize(segments_);
      if (traced_) p->spans.reserve(span_capacity_);
      cached = p.get();
      cached_generation = generation_;
      probes_.push_back(std::move(p));
    }
    return cached;
  }

  /// All probes; call only after the threads that own them stopped.
  const std::vector<std::unique_ptr<ThreadProbe>>& all() const {
    return probes_;
  }
  bool traced() const { return traced_; }
  size_t bins() const { return bins_; }
  size_t segments() const { return segments_; }

 private:
  static uint64_t NextGeneration() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  const bool traced_;
  const size_t bins_;
  const size_t segments_;
  const size_t span_capacity_;
  const uint64_t generation_;
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadProbe>> probes_;
};

/// Writes every probe's spans as Chrome trace-event JSON (loadable in
/// Perfetto and chrome://tracing). Cause links across threads become flow
/// events; nesting on one thread is shown by the timestamps. Returns false
/// when the file cannot be written.
bool WriteChromeTrace(const std::string& path, const ProbeSet& probes,
                      int64_t origin_ns);

}  // namespace perfbench
