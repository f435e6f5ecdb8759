// Engine configuration: execution paradigm, cluster shape, queue bounds and
// calibrated cost constants (DESIGN.md §5.6 documents the calibration).
#pragma once

#include <cstdint>

#include "common/units.h"
#include "elastic/balancer_config.h"
#include "exec/execution_backend.h"
#include "net/network.h"
#include "rc/rc_config.h"
#include "scheduler/scheduler_config.h"
#include "sim/time.h"
#include "state/state_backend.h"

namespace elasticutor {

/// The three execution paradigms of Table 1.
enum class Paradigm {
  kStatic = 0,          // Fixed executors, one core each, static partitioning.
  kResourceCentric = 1, // Dynamic operator-level key repartitioning.
  kElastic = 2,         // Elasticutor: executor-centric core reassignment.
};

const char* ParadigmName(Paradigm p);

/// Knobs of the native multithreaded runtime (exec/native_runtime.h); only
/// read when `EngineConfig::backend == BackendKind::kNative`. Grouped by
/// concern: the data path (batching/back-pressure) and the balance policy
/// (resource-control plane measurement loop).
struct NativeOptions {
  struct DataPathOptions {
    /// Tuples accumulated per cross-thread micro-batch (the native analog
    /// of max_batch_tuples; batches are flushed early when the producer
    /// idles).
    int batch_tuples = 64;
    /// Bounded channel depth, in batches, per worker input (back-pressure).
    int channel_capacity_batches = 64;
  };

  /// Driver-side balance tick (Paradigm::kElastic only): samples the
  /// runtime's TelemetrySnapshot and plans ReassignShard moves.
  struct BalanceOptions {
    /// Tick period (0 = off; reassignments then come only from explicit
    /// ReassignShard calls).
    SimDuration period_ns = 0;
    /// Imbalance trigger (max/avg per-worker normalized load), mirroring
    /// BalancerConfig::theta.
    double theta = 1.25;
    /// Moves planned per tick per operator.
    int max_moves = 2;
    /// Load signal: measured per-shard wall-busy ns with per-worker
    /// measured capacities (the paper's CPU-weighted load model). false
    /// falls back to raw processed-count deltas (pre-PR-9 behavior; only
    /// correct when every tuple costs the same).
    bool use_wall_busy = true;
  };

  /// Worker threads per non-source operator (0 = the operator's
  /// static_executors, or 1 when that is unset). Sources get one thread per
  /// source executor.
  int workers_per_operator = 0;
  /// Worker-slot reservation per operator for runtime growth
  /// (NativeRuntime::GrowWorkers). 0 = auto: max(2 x initial workers, 16).
  /// Slots cost a few pointers each until grown into.
  int max_workers_per_operator = 0;
  /// Same-process shard-copy rate for migrations between worker threads
  /// (bytes/s). 0 = free handoff: the move is a pointer swap and pre-copy
  /// completes synchronously. Positive rates pace MigrationEngine's
  /// chunked pre-copy / delta shipment on the backend's timer wheel, the
  /// native analog of StateLayerConfig::local_copy_bytes_per_sec.
  double migration_copy_bytes_per_sec = 0.0;

  DataPathOptions data_path;
  BalanceOptions balance;
};

struct EngineConfig {
  Paradigm paradigm = Paradigm::kElastic;

  // ---- Execution backend (exec/execution_backend.h) ----
  /// kSim (default): single-threaded discrete-event simulation, the
  /// deterministic path every figure bench and test runs on. kNative: real
  /// OS threads + monotonic clock, supporting the static and elastic
  /// paradigms (shards migrate live between worker threads via the
  /// in-channel labeling barrier) — see docs/architecture.md "Execution
  /// backends".
  exec::BackendKind backend = exec::BackendKind::kSim;
  NativeOptions native;

  // ---- Cluster (paper testbed: 32 nodes x 8 cores, 1 Gbps) ----
  int num_nodes = 32;
  int cores_per_node = 8;
  NetworkConfig net;

  uint64_t seed = 42;

  // ---- Queueing / back-pressure ----
  /// Pending-queue capacity of one elastic-executor task. Kept small, like
  /// Storm's spout max-pending bound: queue depth is what the labeling
  /// tuple of a shard reassignment must drain behind (Fig 8's EC sync
  /// time), and what bounds steady-state latency.
  int task_queue_cap = 8;
  /// Input-queue capacity of a static/RC single-threaded executor.
  int executor_queue_cap = 256;
  /// Retry delay when an emitter finds the target executor full or paused.
  SimDuration emit_retry_ns = Micros(500);
  /// Per-task bound on outputs not yet accepted downstream (the flow-control
  /// window between a task and the executor's emitter daemon). Lets remote
  /// tasks pipeline processing with output transfer while still propagating
  /// back-pressure.
  int task_output_credit = 64;
  /// Channel micro-batching: maximum CONSECUTIVE same-destination emissions
  /// coalesced into one network message / delivery event (see
  /// Runtime::RouteRun). 1 = tuple-at-a-time (the historical data path,
  /// byte-identical results); higher values amortize per-message overhead
  /// and scheduler events without reordering anything.
  int max_batch_tuples = 1;

  // ---- Service times ----
  /// Exponentially distributed per-tuple CPU cost (matches the M/M/k model);
  /// false = deterministic.
  bool exponential_service = true;

  // ---- Validation (tests) ----
  /// Track per-key arrival/processing order and state conservation.
  bool validate_key_order = false;

  // ---- Elasticutor ----
  SchedulerConfig scheduler;
  BalancerConfig balancer;
  /// State layer: backend selection + migration strategy/chunking (see
  /// state/state_backend.h — backends are constructed via the state-layer
  /// factory, not special-cased in the data path).
  StateLayerConfig state;

  // ---- RC ----
  RcConfig rc;

  int total_cores() const { return num_nodes * cores_per_node; }
};

}  // namespace elasticutor
