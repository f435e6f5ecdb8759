// ElasticExecutor — the paper's primary contribution (§3): a lightweight,
// self-contained distributed subsystem responsible for one fixed key
// subspace, able to use a dynamic number of CPU cores on multiple nodes.
//
// Structure (Fig 4):
//  * The main process runs on the executor's local node and hosts the
//    receiver daemon (single entrance for upstream tuples), the emitter
//    daemon (single exit for downstream tuples), the two-tier routing table
//    (static key→shard hash; dynamic shard→task map with per-shard pause
//    buffers) and the local per-process state store.
//  * One task (data-processing thread) per assigned CPU core, each with a
//    pending queue. Tasks on remote nodes live in remote processes with
//    their own state stores; remote tasks exchange tuples only with the
//    receiver/emitter of the main process.
//
// Elasticity operations:
//  * AddCore(node) — creates a task (and a remote process when needed).
//  * RemoveCore(node, done) — drains a task: every shard it owns is
//    reassigned away with the consistent protocol, then the task is
//    destroyed and `done` runs (the scheduler releases the core).
//  * Balance round — the intra-executor load balancer (§3.1).
//
// Consistent shard reassignment (§3.3): this executor drives the
// ReassignProtocol state machine (elastic/reassign_protocol.h) on top of the
// shared MigrationEngine. When the backend requires a migration, the engine
// first pre-copies the shard in chunks while the source task keeps
// processing (under MigrationStrategy::kChunkedLive; a sync-blob baseline
// skips this). The flip then pauses routing for the shard (arrivals buffer
// at the receiver) and sends one labeling tuple down the same FIFO path as
// data to the source task; when the task pops it, all pending tuples of the
// shard have been processed; the engine ships the dirty delta (or, for
// sync-blob, the whole blob), the shard→task map is updated, and buffered
// tuples are flushed to the destination task. Same-process moves migrate
// nothing (intra-process state sharing — the backend decides).
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "elastic/load_balancer.h"
#include "elastic/reassign_protocol.h"
#include "engine/executor_base.h"
#include "engine/runtime.h"
#include "engine/single_task_executor.h"
#include "state/migration_engine.h"
#include "state/state_backend.h"
#include "state/state_store.h"

namespace elasticutor {

class ElasticExecutor : public ExecutorBase {
 public:
  /// Owns global shards [first_shard, first_shard + num_shards).
  ElasticExecutor(Runtime* rt, OperatorId op, ExecutorIndex index, NodeId home,
                  ShardId first_shard, int num_shards);

  /// Creates the shard states in the local store. Call once before Start().
  Status InitShards(int64_t shard_state_bytes);

  // ---- ExecutorBase ----
  void OnTupleArrive(Tuple t) override;  // Receiver daemon.
  /// Receiver daemon, micro-batch arrival (one message, `count` tuples).
  void OnTupleBatch(const Tuple* tuples, size_t count) override;
  bool CanAccept() const override;
  int64_t queued() const override { return total_queued_; }
  void Start() override;

  // ---- Core management (scheduler interface) ----
  Status AddCore(NodeId node);
  /// Drains and destroys one task on `node`; `done` runs when the core is
  /// free. Fails if the executor has a single task or none on `node`.
  Status RemoveCore(NodeId node, EventFn done);

  int num_tasks() const;
  int tasks_on(NodeId node) const;
  /// Cores per node (x_ij column of the assignment matrix), active tasks
  /// only (draining tasks excluded).
  std::unordered_map<NodeId, int> core_distribution() const;
  /// Same data as core_distribution(), as node-ascending (node, cores)
  /// pairs — the sparse placement row the scheduler feeds Algorithm 1.
  std::vector<std::pair<int, int>> placement() const;

  /// Aggregate state size s_j across all processes.
  int64_t state_bytes() const;

  /// Cumulative offered demand for this executor's key subspace, measured
  /// at the upstream routing tables before back-pressure (the scheduler's
  /// λ_j signal; admitted arrivals under-report a starved executor).
  int64_t offered_count() const {
    return rt_->partition(op_)->OfferedInRange(first_shard_, num_shards_);
  }

  /// True while reassignments or task removals are in progress (the
  /// scheduler defers further changes).
  bool transition_pending() const {
    return protocol_.in_flight() > 0 || removals_in_progress_ > 0;
  }

  // ---- Balancing ----
  /// One balancing round (normally driven by the periodic timer; exposed
  /// for tests and for the scheduler to trigger right after AddCore).
  void RunBalanceRound();

  /// Test/bench hook: reassign one shard to any active task on `node`
  /// using the full consistent-reassignment protocol. Asynchronous; the
  /// resulting ElasticityOp lands in EngineMetrics.
  Status ProbeReassign(int local_shard, NodeId node);

  /// Test/bench hook: freezes/unfreezes the periodic balancer (probes want
  /// a balanced but quiescent executor).
  void set_balancing_frozen(bool frozen) { balancing_frozen_ = frozen; }

  /// Current imbalance factor δ over active tasks (capacity-normalized when
  /// capacity-aware balancing is on).
  double CurrentImbalance() const;

  /// Smoothed service-rate estimate (1.0 = nominal) of the slowest active
  /// task on `node`; 1.0 when the node hosts no task. Tests/benches use it
  /// to observe straggler detection.
  /// DEPRECATED as an introspection surface: prefer the backend-independent
  /// Engine::SampleTelemetry() (WorkerTelemetry::speed carries the same
  /// signal; see exec/telemetry.h). Kept for one release — the balancer
  /// itself still consumes the estimate internally.
  double TaskSpeedOn(NodeId node) const;

  // ---- Introspection (tests/benches) ----
  int shards_on_task_count(NodeId node) const;
  int64_t reassignments_done() const { return protocol_.completed(); }
  StateBackend* state_backend() { return backend_.get(); }
  int num_shards() const { return num_shards_; }

 private:
  /// One entry of a task's pending queue: a data tuple, or a labeling
  /// marker (label_id >= 0, the move's ReassignProtocol id).
  struct QueueItem {
    Tuple tuple;
    int64_t label_id = -1;
    bool is_label() const { return label_id >= 0; }
  };

  struct Task {
    int id = -1;
    NodeId node = -1;
    bool busy = false;
    bool draining = false;
    bool waiting_credit = false;
    int outputs_outstanding = 0;
    std::deque<QueueItem> pending;
    Rng rng;
    // Service-rate statistics: nominal (unstretched) work executed vs the
    // wall-clock busy time it actually took on this task's node. Their
    // ratio, EWMA-smoothed, is the task's relative capacity for the
    // balancer (1.0 = nominal speed, 0.25 = a 4x straggler).
    int64_t work_ns = 0;       // Cumulative nominal cost executed.
    int64_t busy_ns = 0;       // Cumulative wall-clock busy time.
    int64_t work_prev_ns = 0;  // Snapshots at the last balance round.
    int64_t busy_prev_ns = 0;
    double speed = 1.0;        // EWMA of work/busy.
    /// RemoveCore's continuation, run once the draining task is gone.
    EventFn on_removed;
  };
  using TaskPtr = std::shared_ptr<Task>;

  struct EmitterEntry {
    Runtime::PendingEmit emit;
    TaskPtr task;  // Credit accounting + liveness.
  };

  // Data path.
  void AdmitOne(Tuple t);
  void RouteToTask(int local_shard, const Tuple& t);
  void EnqueueToTask(const TaskPtr& task, QueueItem item);
  void TaskStartNext(const TaskPtr& task);
  void OnProcessingComplete(const TaskPtr& task, Tuple t);
  /// Appends a task's outputs to the emitter queue (over the network for a
  /// remote task) and releases the job back to the runtime pool.
  void EnqueueEmitter(const TaskPtr& task, Runtime::FlushJob* job);
  void RunEmitter();
  void ScheduleEmitterRetry();
  /// Pops `count` routed entries off the emitter queue, returning output
  /// credit to their tasks (resuming any that were credit-blocked).
  void PopEmitted(size_t count);

  // Reassignment protocol driver (ReassignProtocol ids double as label ids).
  void ReassignShard(int local_shard, int to_task);
  void PauseAndLabel(int64_t id);
  void OnLabel(int64_t id);
  void FinishReassign(int64_t id, const MigrationStats& stats);

  // Task removal.
  void TryFinalizeRemoval(const TaskPtr& task, EventFn done);

  ShardId global_shard(int local) const { return first_shard_ + local; }
  const TaskPtr& task(int id) const { return tasks_.at(id); }
  double EffectiveCostNs() const;

  /// Refreshes every task's service-rate EWMA from the cost counters
  /// accumulated since the last balance round.
  void RefreshTaskSpeeds();
  /// Per-slot capacities (task speeds; 0 for empty slots) for the planner.
  std::vector<double> TaskCapacities() const;

  ShardId first_shard_;
  int num_shards_;

  // Two-tier routing table (second tier; first tier is the operator
  // partition hash).
  std::vector<int> shard_task_;
  std::vector<uint8_t> shard_paused_;  // Arrivals buffer (flip to install).
  std::vector<std::deque<Tuple>> pause_buffers_;

  // Per-shard statistics for the balancer.
  std::vector<int64_t> shard_cost_ns_;   // Cumulative processing cost.
  std::vector<int64_t> shard_cost_prev_;
  std::vector<double> shard_load_;       // EWMA, cost-seconds per second.

  std::vector<TaskPtr> tasks_;  // Slot may be nullptr after removal.
  std::unique_ptr<StateBackend> backend_;

  // Emitter daemon.
  std::deque<EmitterEntry> emitter_queue_;
  // Scratch for coalescing the queue's leading same-destination run into
  // one Runtime::RouteRun call (capacity reused across runs).
  std::vector<Runtime::PendingEmit> emitter_scratch_;
  bool emitter_flushing_ = false;

  // Reassignments in flight (shards are local indices, workers task ids)
  // and task removals.
  ReassignProtocol protocol_;
  int removals_in_progress_ = 0;

  int64_t total_queued_ = 0;
  int64_t last_balance_arrivals_ = 0;
  bool balancing_frozen_ = false;
  Rng rng_;
};

}  // namespace elasticutor
