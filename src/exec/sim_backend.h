// SimBackend — the default ExecutionBackend: a 1:1 wrapper over the
// single-threaded discrete-event Simulator. Every call forwards directly, so
// engines running on this backend are byte-for-byte identical to the
// pre-seam engine (same event ordering, ids, and events_executed counts);
// the determinism regressions in tests/batching_test.cc pin this down.
//
// This header is one of the two places allowed to include sim/simulator.h
// (the other being src/sim/ itself): the simulator type stops leaking into
// the engine stack at this seam.
#pragma once

#include <memory>

#include "exec/execution_backend.h"
#include "sim/simulator.h"

namespace elasticutor {
namespace exec {

class SimBackend final : public ExecutionBackend {
 public:
  SimBackend() : sim_(std::make_unique<Simulator>()) {}

  BackendKind kind() const override { return BackendKind::kSim; }

  SimTime now() const override { return sim_->now(); }

  EventId At(SimTime at, EventFn fn) override {
    return sim_->At(at, std::move(fn));
  }

  EventId After(SimDuration delay, EventFn fn) override {
    return sim_->After(delay, std::move(fn));
  }

  bool Cancel(EventId id) override { return sim_->Cancel(id); }

  void Periodic(SimTime start, SimDuration period,
                std::function<bool(SimTime)> fn) override {
    sim_->Periodic(start, period, std::move(fn));
  }

  uint64_t RunUntil(SimTime until) override { return sim_->RunUntil(until); }

  /// Drains all events (tests; periodic processes never drain).
  uint64_t RunAll() { return sim_->RunAll(); }

  uint64_t events_executed() const override {
    return sim_->events_executed();
  }

  uint64_t heap_events() const override { return sim_->heap_events(); }

 private:
  std::unique_ptr<Simulator> sim_;
};

}  // namespace exec
}  // namespace elasticutor
