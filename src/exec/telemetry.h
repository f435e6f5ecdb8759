// Resource-control plane, measurement half: TelemetrySnapshot is the one
// introspection surface of an execution backend. It replaces three ad-hoc
// surfaces that grew independently (NativeRuntime's aggregate accessors,
// EngineMetrics' busy counters, ElasticExecutor::TaskSpeedOn) with a single
// structured sample a balancer or controller can consume without knowing
// which backend produced it.
//
// The load signal is *measured wall-busy time*, not processed counts: the
// paper's executor-level load model (§4) weighs tasks by the CPU they
// consume, and two shards with equal tuple counts can differ by orders of
// magnitude in per-tuple cost. Natively, busy time is accumulated
// thread-locally from cycle-counter deltas around each tuple (see CycleClock
// below) and published to per-worker/per-shard atomics at batch boundaries,
// so SampleTelemetry() is a lock-free read of monotone counters — safe to
// call from the driver thread while the dataflow runs.
//
// Liveness contract:
//  * Everything in the snapshot is LIVE: valid while threads run, fresh to
//    within one micro-batch (workers publish at batch boundaries).
//  * Post-drain exactness: after WaitDrained() returns, the snapshot equals
//    the joined threads' final counters exactly.
//  * Sink latency histograms are the exception: they are merged into
//    EngineMetrics only after WaitDrained() (per-worker histograms are not
//    mergeable lock-free); use Engine::LatencyHistogram() post-drain.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/ids.h"
#include "sim/time.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace elasticutor {

/// Mirrors state/state_store.h (identical alias; redeclaration is legal) so
/// this header stays free of the state layer.
using ShardId = int32_t;

namespace exec {

/// Cheap monotone per-thread timestamp source for per-tuple busy windows:
/// rdtsc on x86-64, the virtual counter on aarch64, steady_clock elsewhere.
/// Ticks are converted to ns through a once-per-process calibration against
/// steady_clock. Assumes an invariant/constant-rate counter (true on every
/// x86-64 part of the last decade and guaranteed by the ARMv8 architecture);
/// the worst failure mode of a drifting counter is a skewed load *ratio*,
/// which the balancer tolerates by design.
struct CycleClock {
  static inline uint64_t Now() {
#if defined(__x86_64__) || defined(_M_X64)
    return __rdtsc();
#elif defined(__aarch64__)
    uint64_t ticks;
    asm volatile("mrs %0, cntvct_el0" : "=r"(ticks));
    return ticks;
#else
    return static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }

  /// Nanoseconds per tick, calibrated once (first call spins ~2 ms).
  static double NsPerTick() {
    static const double ns_per_tick = Calibrate();
    return ns_per_tick;
  }

  static int64_t ToNs(int64_t ticks) {
    return static_cast<int64_t>(static_cast<double>(ticks) * NsPerTick());
  }

 private:
  static double Calibrate() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__aarch64__)
    const auto wall0 = std::chrono::steady_clock::now();
    const uint64_t tick0 = Now();
    // Spin (not sleep): a descheduled calibration window under-reports the
    // tick rate. 2 ms bounds the error at well under 1%.
    for (;;) {
      const auto wall1 = std::chrono::steady_clock::now();
      if (wall1 - wall0 >= std::chrono::milliseconds(2)) {
        const uint64_t tick1 = Now();
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            wall1 - wall0)
                            .count();
        if (tick1 > tick0) {
          return static_cast<double>(ns) / static_cast<double>(tick1 - tick0);
        }
        return 1.0;  // Counter stuck (virtualized oddity): treat ticks as ns.
      }
    }
#else
    return 1.0;  // steady_clock fallback already counts ns.
#endif
  }
};

/// One worker thread (or simulated executor) of a non-source operator.
struct WorkerTelemetry {
  OperatorId op = -1;
  int index = -1;
  /// Measured wall-busy ns: time spent inside operator logic, excluding
  /// channel waits and control-plane work. Sim: ExecutorMetrics::busy_ns.
  int64_t busy_ns = 0;
  int64_t processed = 0;
  int64_t sink_tuples = 0;
  /// Relative measured service rate in [0, 1] (1 = fastest worker of the
  /// operator), EWMA-smoothed; what the balancer feeds PlanMoves as
  /// capacity. 0 while unmeasured (treated as nominal by consumers).
  double speed = 0.0;
  /// Lifecycle: a retiring worker is being evacuated by ShrinkWorkers and
  /// accepts no new shards; an exited worker's thread is gone, and it is
  /// never again the source or destination of a move.
  bool retiring = false;
  bool exited = false;
};

/// One shard of an elastic operator (empty for the static paradigm / sim).
struct ShardTelemetry {
  OperatorId op = -1;
  ShardId shard = -1;
  int owner = -1;
  int64_t busy_ns = 0;
  int64_t processed = 0;
};

/// One source executor slot.
struct SourceTelemetry {
  OperatorId op = -1;
  int index = -1;
  int64_t emitted = 0;
};

/// A point-in-time sample of the whole execution. All counters are
/// cumulative since Start(); consumers diff successive samples for rates.
struct TelemetrySnapshot {
  SimTime sampled_at = 0;
  std::vector<WorkerTelemetry> workers;
  std::vector<ShardTelemetry> shards;
  std::vector<SourceTelemetry> sources;

  // Aggregates (sums of the above, precomputed for convenience).
  int64_t total_processed = 0;
  int64_t sink_count = 0;
  int64_t source_emitted = 0;
  int64_t total_busy_ns = 0;
  int64_t reassignments_done = 0;
  int64_t migrations_in_flight = 0;

  // Channel health, summed over every worker's input channel, each read
  // under that channel's lock (native only; 0 on sim): pushes that found
  // the ring full, consumer parks, and batches pushed.
  int64_t push_blocks = 0;
  int64_t pop_waits = 0;
  int64_t batches_pushed = 0;
};

/// Implemented by whatever can be measured: NativeRuntime (lock-free counter
/// reads) and the engine's simulator adapter (ExecutorMetrics walk). Bound
/// to the backend via ExecutionBackend::BindResourcePlane.
class TelemetrySource {
 public:
  virtual ~TelemetrySource() = default;
  virtual TelemetrySnapshot SampleTelemetry() const = 0;
};

}  // namespace exec
}  // namespace elasticutor
