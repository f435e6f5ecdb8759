// Single-threaded deterministic discrete-event simulator. All components of
// the simulated cluster (NICs, tasks, schedulers, spouts) schedule callbacks
// here; Run() drives simulated time forward.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace elasticutor {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules fn at absolute time `at` (must be >= now). The callback is
  /// moved once, into its queue slot, and later runs there.
  EventId At(SimTime at, EventFn&& fn);

  /// Schedules fn after `delay` ns (clamped at >= 0).
  EventId After(SimDuration delay, EventFn&& fn);

  /// Cancels a pending event; returns false if it already fired or was
  /// already cancelled.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  /// Runs until the event queue is drained or `until` is reached, whichever
  /// comes first. Events exactly at `until` are executed. Returns the number
  /// of events executed.
  uint64_t RunUntil(SimTime until);

  /// Drains all events (use with care: periodic processes never drain).
  uint64_t RunAll() { return RunUntil(kSimTimeMax); }

  /// Registers a periodic callback firing every `period` ns starting at
  /// `start`. The callback may return false to stop recurring.
  void Periodic(SimTime start, SimDuration period,
                std::function<bool(SimTime)> fn);

  uint64_t events_executed() const { return events_executed_; }

  /// Events scheduled through the event heap rather than a constant-delay
  /// lane (sim/event_queue.h), since construction.
  uint64_t heap_events() const { return queue_.heap_pushes(); }

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

}  // namespace elasticutor
