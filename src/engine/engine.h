// Engine: top-level driver. Owns the execution backend, network, cluster,
// runtime, executors and the paradigm-specific controller; provides the
// run/measure API used by examples, tests and benches.
//
// The backend (EngineConfig::backend) decides what actually executes:
//  * kSim (default)  — discrete-event simulation, deterministic; all
//    paradigms, all tests/figures.
//  * kNative         — real OS threads via exec::NativeRuntime; static
//    dataflow only, wall-clock time. Same Engine API.
//
//   Engine engine(topology, config);
//   ELASTICUTOR_CHECK(engine.Setup().ok());
//   engine.Start();
//   engine.RunFor(Seconds(5));          // Warm-up.
//   engine.ResetMetricsAfterWarmup();
//   engine.RunFor(Seconds(20));         // Measured window.
//   double tput = engine.MeasuredThroughput();
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fault_plane.h"
#include "engine/engine_config.h"
#include "engine/metrics.h"
#include "engine/runtime.h"
#include "engine/spout.h"
#include "engine/topology.h"
#include "exec/execution_backend.h"
#include "net/network.h"

namespace elasticutor {

namespace exec {
class NativeRuntime;
}  // namespace exec

class ElasticExecutor;
class DynamicScheduler;
class MigrationEngine;
class RcController;

class Engine {
 public:
  Engine(Topology topology, EngineConfig config);
  ~Engine();

  /// Instantiates partitions, executors, state and the controller for the
  /// configured paradigm.
  Status Setup();

  /// Starts sources, balancers and the scheduler/controller.
  void Start();

  /// Advances virtual time by `duration`. Sim: runs the event loop. Native:
  /// sleeps wall-clock on the driver thread (firing timers) while the
  /// dataflow threads run.
  void RunFor(SimDuration duration) {
    exec_->RunUntil(exec_->now() + duration);
  }
  void RunUntil(SimTime t) { exec_->RunUntil(t); }

  /// Runs until every source's SourceSpec::max_tuples budget is exhausted
  /// AND the dataflow has fully drained (requires a budget on every source;
  /// checked). The basis of the sim-vs-native equivalence tests: after this
  /// returns, both backends have processed the identical tuple multiset.
  void RunToCompletion();

  /// Clears metric counters; call at the end of the warm-up phase.
  void ResetMetricsAfterWarmup();

  /// Stops all sources (end of run; lets queues drain if run further).
  void StopSources();

  /// Multiplies the arrival rate of every trace-mode source by `factor(t)`
  /// (scenario-driver hook; saturation-mode sources are back-pressure bound
  /// and unaffected). Composes: a second call wraps the already-shaped rate.
  void ShapeSourceRates(std::function<double(SimTime)> factor);

  // ---- Measurement helpers ----
  /// Mean sink throughput (tuples/s) since the last metrics reset.
  double MeasuredThroughput() const;
  /// Latency histogram over completed sink tuples since the last reset.
  const Histogram& LatencyHistogram() const { return metrics_->latency(); }
  int64_t order_violations() const;
  /// Deterministic hot-path cost counters (events / heap allocs / messages
  /// per routed tuple) since the last warm-up reset.
  PerfCounters Perf() const {
    return metrics_->PerfWindow(
        static_cast<int64_t>(exec_->events_executed()),
        static_cast<int64_t>(exec_->heap_events()),
        EventFn::heap_allocations(), net_->messages_sent());
  }

  // ---- Resource-control plane (exec/telemetry.h, exec/worker_pool.h) ----
  /// Point-in-time sample of the execution, backend-independent: the native
  /// runtime serves it from lock-free wall-busy counters; the sim serves it
  /// from the executors' ExecutorMetrics. See telemetry.h for the liveness
  /// contract.
  exec::TelemetrySnapshot SampleTelemetry() const {
    return exec_->SampleTelemetry();
  }
  /// Runtime worker scaling; null under the sim backend (AddCore/RemoveCore
  /// on the elastic executors is the simulated actuation path).
  exec::WorkerPool* worker_pool() const { return exec_->worker_pool(); }

  // ---- Accessors ----
  /// The execution backend (virtual clock + deferred-call scheduling).
  exec::ExecutionBackend* exec() { return exec_.get(); }
  /// The native runtime (threads/channels); null under the sim backend.
  exec::NativeRuntime* native() { return native_.get(); }
  Network* net() { return net_.get(); }
  Runtime* runtime() { return runtime_.get(); }
  EngineMetrics* metrics() { return metrics_.get(); }
  const Cluster& cluster() const { return *cluster_; }
  CoreLedger* ledger() { return ledger_.get(); }
  /// Injected node faults (CPU slowdown / availability); written by the
  /// scenario driver, read by executors and the scheduler.
  NodeFaultPlane* faults() { return faults_.get(); }
  const Topology& topology() const { return topology_; }
  const EngineConfig& config() const { return config_; }
  DynamicScheduler* scheduler() { return scheduler_.get(); }
  RcController* rc_controller() { return rc_.get(); }
  MigrationEngine* migration() { return migration_.get(); }

  /// Elastic executors of an operator (elastic paradigm only).
  std::vector<std::shared_ptr<ElasticExecutor>> elastic_executors(
      OperatorId op) const;
  std::vector<std::shared_ptr<SpoutExecutor>> source_executors(
      OperatorId op) const;

  /// Static-paradigm executor counts chosen for each operator (also RC's
  /// starting point). Filled by Setup().
  const std::vector<int>& provisioned_executors() const {
    return provisioned_;
  }

 private:
  Status SetupSources(OperatorId op, int* next_home_node);
  Status SetupStaticLike(OperatorId op);
  Status SetupElastic(OperatorId op, int* next_home_node);
  std::vector<int> ComputeStaticProvisioning() const;

  Topology topology_;
  EngineConfig config_;

  std::unique_ptr<exec::ExecutionBackend> exec_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<CoreLedger> ledger_;
  std::unique_ptr<NodeFaultPlane> faults_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<MigrationEngine> migration_;
  std::unique_ptr<EngineMetrics> metrics_;
  /// kNative backend only. Declared after the migration engine, metrics and
  /// backend: its destructor (emergency teardown) joins worker threads that
  /// touch all three.
  std::unique_ptr<exec::NativeRuntime> native_;
  /// kSim backend only: the ExecutorMetrics -> TelemetrySnapshot adapter
  /// bound to the backend's resource-control plane.
  std::unique_ptr<exec::TelemetrySource> sim_telemetry_;
  std::unique_ptr<Runtime> runtime_;
  std::unique_ptr<DynamicScheduler> scheduler_;
  std::unique_ptr<RcController> rc_;

  std::vector<int> provisioned_;
  int round_robin_node_ = 0;
  SimTime metrics_reset_at_ = 0;
  bool setup_done_ = false;
};

}  // namespace elasticutor
