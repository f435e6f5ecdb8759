// ExecutionBackend — the seam between the engine stack and whatever actually
// executes it. Everything above this interface (runtime, network model,
// migration engine, controllers, workloads) schedules deferred calls against
// a virtual clock and never names a concrete runtime; everything below it is
// one of two implementations:
//
//  * SimBackend (exec/sim_backend.h) — wraps the single-threaded
//    discrete-event simulator. The default: byte-for-byte deterministic, all
//    tests and figure benches run here. Virtual time advances only when
//    events fire.
//
//  * NativeBackend (exec/native_backend.h) — a monotonic-clock time source
//    plus a thread-safe timer queue. Paired with NativeRuntime
//    (exec/native_runtime.h), which runs executor slots on real OS threads
//    with bounded MPSC channels between them. Virtual time IS wall time
//    (ns since backend construction).
//
// The interface is exactly the scheduling surface the engine stack used to
// take from Simulator*: virtual clock (now), deferred calls (At/After/
// Cancel/Periodic), and the run/stop lifecycle (RunUntil/Stop). EventFn is
// the callback currency on both sides, so the inline-storage/no-allocation
// property of the hot path is backend-independent.
//
// Determinism contract: under SimBackend every call forwards 1:1 to the
// simulator the engine used to own — same event ordering, same event ids,
// same events_executed() — so results are byte-identical to the
// pre-seam engine. Under NativeBackend, deferred calls run on the driver
// thread (the thread inside RunUntil), never concurrently with each other;
// At/After/Cancel may be called from any thread.
// Resource-control plane: beyond scheduling, the backend is the seam through
// which controllers *measure* and *actuate* the execution
// (exec/telemetry.h, exec/worker_pool.h). The concrete runtime registers
// itself via BindResourcePlane; SampleTelemetry()/worker_pool() are then
// backend-independent — the balancer consumes wall-busy load the same way
// whether a simulator or a thread pool produced it.
#pragma once

#include <functional>

#include "exec/telemetry.h"
#include "sim/event_fn.h"
#include "sim/time.h"

namespace elasticutor {

using EventId = uint64_t;

namespace exec {

enum class BackendKind {
  kSim = 0,     // Deterministic discrete-event simulation (default).
  kNative = 1,  // Real OS threads + monotonic clock (throughput benches).
};

const char* BackendKindName(BackendKind kind);

class WorkerPool;  // exec/worker_pool.h

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  ExecutionBackend() = default;
  ExecutionBackend(const ExecutionBackend&) = delete;
  ExecutionBackend& operator=(const ExecutionBackend&) = delete;

  virtual BackendKind kind() const = 0;

  // ---- Virtual clock ----
  /// Current virtual time in ns. Sim: event time. Native: monotonic wall
  /// time since backend construction (callable from any thread).
  virtual SimTime now() const = 0;

  // ---- Deferred-call scheduling ----
  /// Schedules fn at absolute virtual time `at` (>= now). Sim: must be
  /// called from the event loop thread. Native: callable from any thread;
  /// the call fires on the driver thread during RunUntil.
  virtual EventId At(SimTime at, EventFn fn) = 0;

  /// Schedules fn after `delay` ns (clamped at >= 0).
  virtual EventId After(SimDuration delay, EventFn fn) = 0;

  /// Cancels a pending deferred call; returns false if it already fired or
  /// was already cancelled.
  virtual bool Cancel(EventId id) = 0;

  /// Registers a periodic callback firing every `period` ns starting at
  /// `start`. The callback may return false to stop recurring.
  virtual void Periodic(SimTime start, SimDuration period,
                        std::function<bool(SimTime)> fn) = 0;

  // ---- Run/stop lifecycle ----
  /// Drives execution until virtual time `until`. Sim: runs the event loop.
  /// Native: blocks the calling (driver) thread until wall time reaches
  /// `until`, firing due deferred calls on this thread; worker threads keep
  /// running throughout. Returns the number of deferred calls executed.
  virtual uint64_t RunUntil(SimTime until) = 0;

  /// Requests an early exit from a RunUntil in progress (native: wakes the
  /// driver). Sim: no-op (RunUntil returns when the queue drains).
  virtual void Stop() {}

  /// Deferred calls executed since construction (perf counters).
  virtual uint64_t events_executed() const = 0;

  /// Deferred calls scheduled through the simulator's event heap rather
  /// than one of its constant-delay lanes (perf counters). 0 on backends
  /// without that split.
  virtual uint64_t heap_events() const { return 0; }

  // ---- Resource-control plane ----
  /// Registers the measurement and actuation surfaces of the concrete
  /// execution (Engine calls this during Setup: the native runtime binds
  /// itself for both; the sim binds the engine's ExecutorMetrics adapter
  /// and no pool — AddCore/RemoveCore is the simulated actuation path).
  /// Either pointer may be null; the backend does not own them.
  void BindResourcePlane(TelemetrySource* telemetry, WorkerPool* pool) {
    telemetry_ = telemetry;
    worker_pool_ = pool;
  }

  /// A point-in-time sample of the execution (exec/telemetry.h documents
  /// the liveness contract). Empty snapshot when nothing is bound yet.
  TelemetrySnapshot SampleTelemetry() const {
    return telemetry_ != nullptr ? telemetry_->SampleTelemetry()
                                 : TelemetrySnapshot{};
  }

  /// Runtime worker scaling (exec/worker_pool.h); null when the backend
  /// cannot actuate thread counts (kSim).
  WorkerPool* worker_pool() const { return worker_pool_; }

 private:
  TelemetrySource* telemetry_ = nullptr;
  WorkerPool* worker_pool_ = nullptr;
};

}  // namespace exec
}  // namespace elasticutor
