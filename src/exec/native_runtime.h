// NativeRuntime — real multithreaded execution of a dataflow topology,
// paired with NativeBackend. Where the simulator models executors as
// event-driven callbacks on one thread, here every executor slot is an OS
// thread:
//
//   source threads ──batches──▶ worker threads ──batches──▶ ... ──▶ sinks
//
// * One thread per source executor and per worker slot of each non-source
//   operator (NativeOptions::workers_per_operator).
// * Tuples travel in pooled micro-batches (exec/batch_pool.h) over bounded
//   MPSC channels (exec/mpsc_channel.h) — the native incarnation of the
//   simulated data path's channel micro-batching; bounded channels give the
//   same back-pressure-to-the-sources behavior as the simulator's admission
//   reservations.
// * Keys route through the same OperatorPartition hash as the simulator, and
//   per-tuple semantics go through the same ApplyOperatorLogic, so per-key
//   results are identical to a sim run over the same tuple multiset (the
//   native_equivalence tests pin this down).
// * Shutdown is topological: a finishing producer closes its slot on every
//   downstream channel; a worker exits when all its producers closed and its
//   channel drained, then closes downstream in turn. No poison pills, no
//   sentinel tuples.
// * Sources run in saturation mode (emit as fast as back-pressure allows)
//   or trace mode (Poisson arrivals paced on the backend's timer wheel,
//   mirroring the simulator spout's draw order so streams stay
//   bit-identical).
//
// Elastic paradigm (paper §3.3 on real threads). Each non-source operator
// carries a per-shard routing table of atomics (`ElasticOp::owner`);
// producers route every tuple by shard owner. ReassignShard(op, shard, to)
// posts a move on the ReassignProtocol state machine shared with the
// simulator (elastic/reassign_protocol.h holds its phases and rules, and
// docs/architecture.md which thread performs each step); every call into it
// holds ctrl_mu_. What is native:
//
// * The old owner's thread runs the pre-copy on its own store; under
//   kChunkedLive the chunks are paced on the backend's timer wheel
//   (native.migration_copy_bytes_per_sec) while it keeps processing.
// * The flip raises `held[shard]` to name the destination and flips
//   `owner[shard]`. Every producer still open toward the operator owes one
//   label marker, pushed into the old owner's channel behind everything it
//   already routed there; their count is the barrier the flip arms.
// * Tuples are held at the destination: post-flip tuples of the shard wait
//   in `Worker::hold` until the state, finalized into a per-move staging
//   store, is installed; then they are replayed in arrival order and
//   `held` drops. No tuple is lost, duplicated, or reordered within its
//   (producer, key) stream — native_elastic_stress_test pins this down
//   under TSan.
//
// Memory-ordering contract of the routing flip: the publisher stores
// `held = destination + 1` (relaxed) before flipping `owner` (release);
// producers load `owner` (acquire) and every worker acquire-loads `held`
// per tuple. A producer that observes the new owner therefore routes to a
// worker that is guaranteed to observe `held` for any tuple it receives
// from that producer (the channel's internal mutex provides the edge
// between producer and consumer), so the destination can never process a
// post-flip tuple before the state arrives. The hold test is
// `held == my_index + 1`, destination-only by construction. The old owner
// keeps processing the shard's pre-flip backlog while `held` is raised;
// it must not consult `owner` there, because the flip may run on another
// thread (the driver's timer wheel under paced copy) and the old owner
// could read a raised `held` next to a not yet flipped `owner`.
//
// Resource-control plane (Engine::SampleTelemetry() serves the first half;
// callers reach the second through Engine::native()):
//
// * Measurement. Every worker accumulates *measured wall-busy* cycle-clock
//   deltas per tuple, thread-locally (see TupleClock: one CycleClock read
//   per tuple closes that tuple's window and opens the next one's; channel
//   waits and control-plane work fall outside every window), and publishes
//   them (plus processed/sink counts) to per-worker atomics at batch
//   boundaries and to a per-shard atomic per tuple. SampleTelemetry() is
//   therefore a lock-free-read snapshot that is live-safe and exact after
//   WaitDrained(). The balance tick feeds the per-shard busy deltas and
//   per-worker measured speeds (EWMA of processed/busy, normalized to the
//   fastest worker) into the capacity-aware balance::PlanMoves — a worker
//   pinned to a busy core sheds shards even when raw tuple counts look
//   even (set native.balance.use_wall_busy=false for the old
//   processed-count diff).
//
// * Actuation. GrowWorkers(op, n) adds threads at runtime: each new worker
//   takes a pre-reserved slot (native.max_workers_per_operator), registers
//   as a producer on every downstream channel (MpscChannel::AddProducer)
//   and becomes a routing destination the moment the slot count's release
//   store lands; producers discover the new channels lazily (EmitTo
//   re-syncs its ports when it sees an out-of-range worker index, and
//   every locked control sweep re-syncs). ShrinkWorkers(op, n) is the
//   native RemoveCore: victims are flagged `retiring` (never again a
//   migration destination), a retirement pump evacuates their shards
//   through the ordinary labeling-barrier protocol above, and the thread
//   exits only when it owns no shard and no in-flight migration references
//   it — evacuation-before-exit, so zero tuples are lost or reordered.
//
// Threading contract: worker state (stores, rngs, counters) is strictly
// thread-local; cross-thread communication happens only through the
// channels and the control board (ctrl_mu_ + atomics above). Shards move
// only between live workers: a move's source and destination threads do
// every step that touches their stores, and neither may depart while the
// move references it (WorkerEpilogue), so no other thread touches a
// worker's store before WaitDrained() returned.
// Introspection surfaces:
//  * SampleTelemetry() — live (fresh to one micro-batch) and exact after
//    WaitDrained(); the canonical surface for counts, busy time and the
//    channel-health sums.
//  * reassignments_done(), shard_owner(), migrations_in_flight(),
//    num_workers() are live-safe.
//  * order_violations() is valid only after WaitDrained() returned (it
//    reads the joined threads' plain counters).
//  * Sink latency histograms merge into EngineMetrics at WaitDrained()
//    (Engine::LatencyHistogram() is post-drain on this backend).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "elastic/reassign_protocol.h"
#include "engine/engine_config.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/topology.h"
#include "exec/batch_pool.h"
#include "exec/mpsc_channel.h"
#include "exec/native_backend.h"
#include "exec/telemetry.h"
#include "state/migration_engine.h"
#include "state/state_store.h"

namespace elasticutor {
namespace exec {

class NativeRuntime {
 public:
  /// `migration` may be null for the static paradigm; the elastic paradigm
  /// requires it (checked in Setup).
  NativeRuntime(const Topology* topology, const EngineConfig* config,
                NativeBackend* backend, MigrationEngine* migration,
                EngineMetrics* metrics);
  ~NativeRuntime();

  NativeRuntime(const NativeRuntime&) = delete;
  NativeRuntime& operator=(const NativeRuntime&) = delete;

  /// Builds partitions, channels, stores and per-slot rngs (mirroring the
  /// simulator's deterministic fork order). Supports the static and elastic
  /// paradigms; rejects resource-centric (simulator-only).
  Status Setup();

  /// Launches all threads (and the periodic balance tick when
  /// native.balance.period_ns is set). Sources run until their
  /// SourceSpec::max_tuples budget is exhausted (0 = until StopSources).
  void Start();

  /// Asks sources to stop after their current tuple; the dataflow then
  /// drains and shuts down topologically.
  void StopSources();

  /// Blocks until every thread has exited, then merges per-worker counters
  /// and sink-latency histograms into EngineMetrics. While threads live and
  /// elastic migrations or trace sources need the timer wheel, pumps the
  /// backend so timers keep firing (a move keeps both of its endpoint
  /// threads alive, so none is in flight once they are all gone).
  /// Idempotent.
  void WaitDrained();

  // ---- Resource-control plane ----
  /// Live point-in-time sample (see the liveness contract above and in
  /// exec/telemetry.h). Lock-free counter reads plus one ctrl_mu_ hold for
  /// the lifecycle flags and measured speeds.
  TelemetrySnapshot SampleTelemetry() const;

  /// Adds `n` worker threads to `op` at runtime (elastic paradigm, after
  /// Start, while some producer is still open, within the operator's slot
  /// reservation). The new workers start shard-less; the balancer or the
  /// caller moves load onto them.
  Status GrowWorkers(OperatorId op, int n);

  /// Retires the `n` highest-index active workers of `op` by evacuating
  /// every shard they own over the labeling-barrier protocol; each victim
  /// thread exits only after its last shard's drain finalized (the native
  /// RemoveCore). Retiring workers are rejected as move destinations from
  /// the moment the call returns. Asynchronous: returns once the evacuation
  /// is underway. Fails under the static paradigm and when fewer than n+1
  /// active workers remain (the pool never shrinks to zero).
  Status ShrinkWorkers(OperatorId op, int n);

  // ---- Elasticity (driver thread; elastic paradigm only) ----
  /// Initiates the consistent live reassignment of `shard` of operator
  /// `op` to worker thread `to_worker`. Asynchronous: returns once the move
  /// is posted (ReassignProtocol::Phase::kRequested). No-op OK when the
  /// shard already lives there. FailedPrecondition while another move of
  /// the same shard is in flight, when the destination is retiring, and
  /// when the source or the destination worker is departing (its input is
  /// exhausted and no move holds it; every exit passes there) — shards
  /// move only between live workers, so after the drain every move is
  /// rejected and changes nothing.
  Status ReassignShard(OperatorId op, ShardId shard, int to_worker);

  /// Current owner worker of a shard (acquire load; callable while live).
  int shard_owner(OperatorId op, ShardId shard) const;
  /// Completed reassignments (callable while live).
  int64_t reassignments_done() const;
  /// Moves currently in flight (callable while live).
  int64_t migrations_in_flight() const;
  /// Routing-pause durations (flip -> shard installed) of every completed
  /// migration, in ns.
  std::vector<SimDuration> migration_pauses() const;
  /// Label markers pushed by producers over the runtime's lifetime.
  int64_t labels_routed() const;

  /// Out-of-order (origin, key) deliveries observed by the concurrent
  /// order validator (validate_key_order; always 0 unless the routing
  /// protocol is broken). Valid after WaitDrained().
  int64_t order_violations() const;
  /// Batches ever heap-allocated by the pool (flat in steady state).
  int64_t batches_allocated() const { return pool_.allocated(); }

  /// Live worker-slot count (grown slots included; retiring workers count
  /// until their threads exit).
  int num_workers(OperatorId op) const;
  int num_shards(OperatorId op) const;
  /// Shard a key hashes to (the same two-tier mapping producers use;
  /// benches derive skew sets from it).
  ShardId shard_of_key(OperatorId op, uint64_t key) const;
  /// Worker currently routing the shard, on either paradigm: the live
  /// owner atomic under elastic, the fixed partition map under static.
  int worker_of_shard(OperatorId op, ShardId shard) const;
  /// Per-worker state store (equivalence tests read per-key aggregates).
  ProcessStateStore* worker_store(OperatorId op, int worker);

 private:
  friend class NativeEmitContext;

  /// One output route of a producer thread: the partial batches it is
  /// accumulating toward each worker of one downstream operator. Owned and
  /// touched only by the producer's own thread; grown destination workers
  /// are appended by SyncProducerPorts under ctrl_mu_ (called only from
  /// the producer's own thread).
  struct ProducerPort {
    OperatorId to_op = -1;
    OperatorPartition* part = nullptr;
    std::vector<MpscChannel*> channels;          // One per dest worker.
    std::vector<TupleBatchStorage*> pending;     // Partial batch per worker.
  };

  /// State common to both producer kinds (sources and workers): output
  /// ports, the cursor into the control board's label-command log, and the
  /// order-validation emission counters. All thread-local to the producer.
  struct Producer {
    std::vector<ProducerPort> ports;  // One per downstream operator.
    uint32_t origin = 0;              // Validation stamp (unique per slot).
    size_t cmd_cursor = 0;            // label_cmds_ consumed so far.
    uint64_t seen_version = 0;        // ctrl_version_ at the last poll.
    /// Per-(dest op, key) emission sequence (validate_key_order only).
    std::map<std::pair<OperatorId, uint64_t>, uint64_t> emit_seq;
  };

  /// Consumer-side order-validation state: last sequence per (origin, key),
  /// kept per shard so it can travel with the shard on migration.
  using ShardOrderState = std::map<std::pair<uint32_t, uint64_t>, uint64_t>;

  struct Worker : Producer {
    OperatorId op = -1;
    int index = 0;
    std::unique_ptr<MpscChannel> input;
    ProcessStateStore store;
    Rng rng{0, 0};
    bool is_sink = false;
    int64_t processed = 0;
    int64_t sink_tuples = 0;
    int64_t order_violations = 0;
    /// Measured wall-busy cycle ticks of processed tuples (thread-local;
    /// see TupleClock and exec/telemetry.h CycleClock).
    int64_t busy_ticks = 0;
    /// Sink-side tuple latency (created_at -> sink), merged into
    /// EngineMetrics after the thread joined.
    Histogram latency;
    /// Live telemetry: published by the worker's own thread at batch
    /// boundaries (relaxed stores of the plain counters above), read
    /// lock-free by SampleTelemetry and the balance tick.
    std::atomic<int64_t> pub_processed{0};
    std::atomic<int64_t> pub_sink{0};
    std::atomic<int64_t> pub_busy_ns{0};
    /// ShrinkWorkers marked this worker for retirement (set under ctrl_mu_,
    /// read lock-free as the worker's fast exit gate). Sticky: a retired
    /// worker is never again a valid migration destination.
    std::atomic<bool> retiring{false};
    /// Post-flip tuples of shards whose state has not arrived yet, in
    /// arrival order (replayed at install).
    std::unordered_map<ShardId, std::vector<Tuple>> hold;
    std::unordered_map<ShardId, ShardOrderState> order_state;
    /// Shutdown handshake, guarded by ctrl_mu_. `departing` is set
    /// atomically with the epilogue's final no-pending-migrations check
    /// (ReassignShard rejects a departing endpoint — the worker will never
    /// poll again); `exited` is set once the ports are closed.
    bool departing = false;
    bool exited = false;
    std::thread thread;
  };

  struct Source : Producer {
    OperatorId op = -1;
    int index = 0;
    Rng rng{0, 0};
    int64_t generated = 0;
    std::atomic<int64_t> pub_generated{0};  // Live telemetry.
    // Trace-mode pacing: the backend timer sets `fired`, the source thread
    // waits on the condvar (with a poll fallback so StopSources is prompt).
    std::mutex pace_mu;
    std::condition_variable pace_cv;
    bool pace_fired = false;
    std::thread thread;
  };

  /// Per-operator elastic routing state. The atomics are the hot-path
  /// routing table; everything else about a move lives in `migrations_`
  /// under ctrl_mu_.
  struct ElasticOp {
    std::vector<std::atomic<int32_t>> owner;    // Shard -> worker index.
    /// Shard state in flight: destination worker index + 1 while a move's
    /// state travels, 0 otherwise.
    std::vector<std::atomic<int32_t>> held;
    std::vector<std::atomic<int64_t>> processed;   // Per-shard tuple counts.
    std::vector<std::atomic<int64_t>> busy_ticks;  // Per-shard wall-busy.
    // Driver-local balance snapshots (sized to the slot reservation).
    std::vector<int64_t> balance_prev;       // Last processed sample.
    std::vector<int64_t> balance_prev_busy;  // Last busy-ns sample.
    /// Measured relative per-worker speed EWMA in [0, 1] (1 = fastest;
    /// 0 = never observed, treated as nominal). Guarded by ctrl_mu_.
    std::vector<double> speed_ewma;
    std::vector<int64_t> prev_worker_busy;   // Speed-EWMA deltas.
    std::vector<int64_t> prev_worker_proc;
    int open_producers = 0;                  // Guarded by ctrl_mu_.
  };

  /// A move's staging store (the delta ships into it; stable address) and
  /// the shard's order-validation state, from finalize to install.
  struct Staging {
    ProcessStateStore store;
    ShardOrderState order_state;
  };

  /// A labeling command on the control board: every producer with a port
  /// toward `op` owes one label marker into `from_worker`'s channel.
  struct LabelCmd {
    OperatorId op = -1;
    int from_worker = -1;
    int64_t label_id = -1;
  };

  /// A worker's clock across one run of tuples (a batch or a replay): one
  /// backend_->now()/CycleClock anchor pair read when the run starts, and
  /// the tick that opened the current tuple's busy window. The tick read
  /// after a tuple's logic closes its window and opens the next one's, so
  /// the windows cover the per-tuple bookkeeping too; 0 = none open (after
  /// a hold), and the next tuple opens with a fresh read. Sink completion
  /// times derive from the closing tick through the anchor, so a tuple
  /// costs one clock read on the worker side.
  struct TupleClock {
    SimTime anchor_ns = 0;
    uint64_t anchor_tick = 0;
    double ns_per_tick = 0.0;
    uint64_t open_tick = 0;
    /// Backend time of a tick of this run.
    SimTime ToTime(uint64_t tick) const {
      return anchor_ns + static_cast<SimTime>(
                             static_cast<double>(tick - anchor_tick) *
                             ns_per_tick);
    }
  };
  /// Reads the anchor pair; the first tuple's window opens at it.
  TupleClock StartTupleRun() const;

  void WorkerLoop(Worker* w);
  void SourceLoop(Source* s);
  void ProcessTuple(Worker* w, const OperatorSpec& spec, const Tuple& t,
                    TupleClock* clock);
  void CheckArrivalOrder(Worker* w, ShardId shard, const Tuple& t);
  /// Relaxed stores of the worker's plain counters into its pub_* atomics
  /// (called at batch boundaries and after held-tuple replays).
  void PublishWorkerCounters(Worker* w);

  // ---- Elastic control plane ----
  /// Producer-side control poll: push label markers for commands published
  /// since the last poll (both sources and workers).
  void PollProducer(Producer* p);
  /// Worker-side control poll: label duties plus this worker's move duties
  /// (start pre-copy / finalize / install). `exhausted`: the input channel
  /// is drained for good (epilogue), so the poll skips the version gate and
  /// vouches the worker quiescent for unarmed drains.
  void PollWorkerControl(Worker* w, bool exhausted);
  /// Flushes the partial batch toward `from`, then pushes a label marker
  /// behind it.
  void PushLabel(ProducerPort* port, int from, int64_t label_id);
  /// Source worker: MigrationEngine::Begin on its own store.
  void StartPrecopy(Worker* w, int64_t label_id, ShardId shard,
                    bool quiescent);
  /// Pre-copy complete (worker thread or driver timer): flip routing, arm
  /// the barrier, publish the labeling command, kick everyone.
  void BeginLabeling(OperatorId op, int64_t label_id);
  /// A label marker popped from `w`'s channel.
  void OnLabel(Worker* w, int64_t label_id);
  /// Finalizes on the source worker when the protocol allows it: flush
  /// downstream (pre-flip emissions must precede post-flip ones), ship the
  /// delta. `quiescent`: `w` consumed its whole input (see PollWorkerControl).
  void DrainComplete(Worker* w, int64_t label_id, bool quiescent);
  /// Finalize landed (worker thread or driver timer): stage ready, wake the
  /// destination.
  void MigrationReady(int64_t label_id);
  /// Destination worker: install the shard, replay held tuples.
  void InstallMigratedShard(Worker* w, int64_t label_id);
  /// Worker shutdown: wait until no in-flight migration references this
  /// worker (its duties may still be pending while its channel is drained).
  void WorkerEpilogue(Worker* w);
  /// Driver balance tick: per-shard measured wall-busy deltas (or
  /// processed-count deltas when use_wall_busy is off) + per-worker
  /// measured capacities -> capacity-aware PlanMoves -> ReassignShard.
  void BalanceTick();
  /// Updates the per-worker speed EWMAs of one operator from the published
  /// busy/processed counters. Caller holds ctrl_mu_.
  void UpdateWorkerSpeeds(OperatorId op, ElasticOp* eo);
  /// Retirement pump (backend timer, 1 ms): replans the evacuation of every
  /// retiring worker's remaining shards (stragglers appear when an
  /// in-flight move lands on a victim after the shrink). Returns true while
  /// any retiring worker has not exited.
  bool PumpRetirement();
  /// The retiring worker's exit test: owns no shard, holds no tuples, and
  /// no in-flight migration references it (the channel then provably
  /// contains nothing the protocol still needs — see ShrinkWorkers).
  bool RetireReady(Worker* w);

  /// Routes one tuple into the port's partial batch for its destination
  /// worker, pushing the batch when full. Returns false iff the channel was
  /// aborted (emergency teardown). Re-syncs the producer's ports when the
  /// routing table names a grown worker this producer has not seen yet.
  bool EmitTo(Producer* p, ProducerPort* port, const Tuple& t);
  /// Pushes every non-empty partial batch (producer idle or finishing).
  void FlushPorts(std::vector<ProducerPort>* ports);
  /// Producer exit: outstanding label duties, final flush, CloseProducer on
  /// every downstream channel. Decrements open_producers under the same
  /// lock that sweeps the duties, so label barriers armed later never count
  /// this producer.
  void CloseProducerPorts(Producer* p);
  /// Wires the producer's ports toward every downstream operator of `op`.
  void BuildPorts(OperatorId op, std::vector<ProducerPort>* ports);
  /// Appends channels of workers grown since the ports were built. Caller
  /// holds ctrl_mu_ (or is single-threaded Setup); must run in every locked
  /// control sweep so a producer's port vector always covers every worker
  /// a label command can name.
  void SyncProducerPorts(Producer* p);
  /// Collects the label duties published since the producer's last sweep.
  /// Caller holds ctrl_mu_; the pushes happen outside it (a Push may block
  /// on a full channel whose consumer is itself acquiring ctrl_mu_).
  struct LabelDuty {
    ProducerPort* port;
    int from;
    int64_t label_id;
  };
  void CollectLabelDuties(Producer* p, std::vector<LabelDuty>* duties);
  /// Trace pacing: sleeps until backend time `target` via a backend timer
  /// (falls back to 1 ms polling). False when stopped meanwhile.
  bool SourceWaitUntil(Source* s, SimTime target);

  int WorkerCount(OperatorId op) const;
  /// Worker-slot reservation of `op` (>= the initial worker count).
  int MaxSlots(OperatorId op) const;
  /// Live worker of `op` at `index` (< num_workers(op)).
  Worker* worker_at(OperatorId op, int index) const {
    return workers_[op][index].get();
  }
  /// Applies `f` to every live worker (acquire-loads the slot counts, so
  /// grown workers are covered from the moment they are visible).
  template <typename F>
  void ForEachWorker(F&& f) const {
    for (OperatorId op = 0; op < static_cast<OperatorId>(workers_.size());
         ++op) {
      const int count = worker_count_[op].load(std::memory_order_acquire);
      for (int i = 0; i < count; ++i) f(workers_[op][i].get());
    }
  }

  const Topology* topology_;
  const EngineConfig* config_;
  NativeBackend* backend_;
  MigrationEngine* migration_;
  EngineMetrics* metrics_;

  BatchPool pool_;
  size_t batch_tuples_ = 64;
  bool elastic_ = false;
  bool validate_ = false;
  /// Timer wheel participates in the dataflow (elastic migrations or trace
  /// sources): WaitDrained must pump the backend instead of joining cold.
  bool has_timed_work_ = false;

  std::vector<std::unique_ptr<OperatorPartition>> partitions_;  // Per op.
  /// Worker slots, per op. Sized to MaxSlots(op) at Setup and never
  /// reallocated: slot i is written once (Setup or GrowWorkers, before the
  /// count's release store) and read only at indices below the acquired
  /// count — the fixed array is what makes runtime growth race-free
  /// against the lock-free readers (EmitTo's routing, the kick-all loop).
  std::vector<std::vector<std::unique_ptr<Worker>>> workers_;
  /// Live worker count per op (release store after the slot is filled).
  std::vector<std::atomic<int>> worker_count_;
  std::vector<std::unique_ptr<Source>> sources_;
  std::vector<std::unique_ptr<ElasticOp>> elastic_ops_;         // Per op.

  // ---- Control board (elastic): guarded by ctrl_mu_ ----
  mutable std::mutex ctrl_mu_;
  std::condition_variable ctrl_cv_;
  /// Bumped (under ctrl_mu_) on every board mutation producers or workers
  /// must notice; the producers' fast-path gate is one acquire load.
  std::atomic<uint64_t> ctrl_version_{0};
  std::vector<LabelCmd> label_cmds_;  // Append-only command log.
  ReassignProtocol protocol_;        // Moves in flight; ids are label ids.
  std::map<int64_t, Staging> staging_;  // By move id, from finalize.
  int64_t labels_routed_ = 0;
  std::vector<SimDuration> pause_ns_;
  bool teardown_ = false;
  /// Origin stamps continue Setup's numbering for grown workers.
  uint32_t next_origin_ = 1;
  /// Retirement pump armed (one periodic timer serves all operators).
  bool retire_pump_armed_ = false;

  std::atomic<int> live_threads_{0};
  std::atomic<bool> stop_sources_{false};
  bool setup_done_ = false;
  bool started_ = false;
  bool drained_ = false;
};

}  // namespace exec
}  // namespace elasticutor
