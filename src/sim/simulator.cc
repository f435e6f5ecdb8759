#include "sim/simulator.h"

#include <memory>

#include "common/status.h"

namespace elasticutor {

EventId Simulator::At(SimTime at, EventFn&& fn) {
  ELASTICUTOR_CHECK_MSG(at >= now_, "scheduling into the past");
  return queue_.Push(at, std::move(fn));
}

EventId Simulator::After(SimDuration delay, EventFn&& fn) {
  if (delay < 0) delay = 0;
  return queue_.Push(now_ + delay, std::move(fn));
}

uint64_t Simulator::RunUntil(SimTime until) {
  uint64_t executed = 0;
  EventQueue::Ready ready;
  while (queue_.Next(until, &ready)) {
    now_ = ready.time;
    queue_.RunAndRelease(ready.id);
    ++executed;
    ++events_executed_;
  }
  if (now_ < until && until != kSimTimeMax) now_ = until;
  return executed;
}

void Simulator::Periodic(SimTime start, SimDuration period,
                         std::function<bool(SimTime)> fn) {
  ELASTICUTOR_CHECK_MSG(period > 0, "periodic period must be positive");
  // The simulator owns periodic tasks; each tick closure holds only a raw
  // pointer (16 bytes — always inline in EventFn). Tasks live until the
  // simulator dies.
  auto task = std::make_unique<PeriodicTask>();
  task->fn = std::move(fn);
  task->period = period;
  PeriodicTask* raw = task.get();
  periodic_tasks_.push_back(std::move(task));
  At(start, [this, raw]() { PeriodicTick(raw); });
}

void Simulator::PeriodicTick(PeriodicTask* task) {
  if (task->fn(now_)) {
    After(task->period, [this, task]() { PeriodicTick(task); });
  }
}

}  // namespace elasticutor
