// SimBackend — the default ExecutionBackend: the single-threaded
// deterministic discrete-event loop. All components of the simulated
// cluster (NICs, tasks, schedulers, spouts) schedule callbacks here;
// RunUntil() drives virtual time forward. Events fire in (time, schedule
// order), so two runs with the same seed execute the same events in the same
// order with the same ids; the determinism regressions in
// tests/batching_test.cc pin this down.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "exec/execution_backend.h"
#include "sim/event_queue.h"

namespace elasticutor {
namespace exec {

class SimBackend final : public ExecutionBackend {
 public:
  SimBackend() = default;

  BackendKind kind() const override { return BackendKind::kSim; }

  SimTime now() const override { return now_; }

  /// Schedules fn at absolute time `at` (must be >= now). The callback is
  /// moved once, into its queue slot, and later runs there.
  EventId At(SimTime at, EventFn fn) override;

  /// Schedules fn after `delay` ns (clamped at >= 0).
  EventId After(SimDuration delay, EventFn fn) override;

  bool Cancel(EventId id) override { return queue_.Cancel(id); }

  void Periodic(SimTime start, SimDuration period,
                std::function<bool(SimTime)> fn) override;

  /// Runs until the event queue is drained or `until` is reached, whichever
  /// comes first. Events exactly at `until` are executed. Returns the number
  /// of events executed.
  uint64_t RunUntil(SimTime until) override;

  /// Drains all events (tests; periodic processes never drain).
  uint64_t RunAll() { return RunUntil(kSimTimeMax); }

  uint64_t events_executed() const override { return events_executed_; }

  /// Events scheduled through the event heap rather than a constant-delay
  /// lane (sim/event_queue.h), since construction.
  uint64_t heap_events() const override { return queue_.heap_pushes(); }

 private:
  struct PeriodicTask {
    std::function<bool(SimTime)> fn;
    SimDuration period = 0;
  };

  void PeriodicTick(PeriodicTask* task);

  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t events_executed_ = 0;
  std::vector<std::unique_ptr<PeriodicTask>> periodic_tasks_;
};

}  // namespace exec
}  // namespace elasticutor
