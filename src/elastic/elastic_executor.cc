#include "elastic/elastic_executor.h"

#include <algorithm>

namespace elasticutor {

ElasticExecutor::ElasticExecutor(Runtime* rt, OperatorId op,
                                 ExecutorIndex index, NodeId home,
                                 ShardId first_shard, int num_shards)
    : ExecutorBase(rt, op, index, home),
      first_shard_(first_shard),
      num_shards_(num_shards),
      rng_(rt->rng()->Fork(0xE1A5 + MakeExecutorId(op, index))) {
  ELASTICUTOR_CHECK(num_shards > 0);
  shard_task_.assign(num_shards, -1);
  shard_paused_.assign(num_shards, 0);
  pause_buffers_.resize(num_shards);
  shard_cost_ns_.assign(num_shards, 0);
  shard_cost_prev_.assign(num_shards, 0);
  shard_load_.assign(num_shards, 0.0);
  backend_ = CreateStateBackend(rt->config().state, home, rt->net());
  backend_->AddProcess(home);
}

Status ElasticExecutor::InitShards(int64_t shard_state_bytes) {
  ProcessStateStore* store = backend_->store(home_node_);
  for (int s = 0; s < num_shards_; ++s) {
    ELASTICUTOR_RETURN_NOT_OK(
        store->CreateShard(global_shard(s), shard_state_bytes));
  }
  return Status::OK();
}

void ElasticExecutor::Start() {
  ELASTICUTOR_CHECK_MSG(num_tasks() > 0,
                        "elastic executor started with no cores");
  const BalancerConfig& cfg = rt_->config().balancer;
  if (!cfg.enabled) return;
  rt_->exec()->Periodic(cfg.interval_ns, cfg.interval_ns,
                       [this](SimTime) {
                         RunBalanceRound();
                         return true;
                       });
}

Status ElasticExecutor::ProbeReassign(int local_shard, NodeId node) {
  if (local_shard < 0 || local_shard >= num_shards_) {
    return Status::InvalidArgument("shard out of range");
  }
  if (protocol_.InTransition(op_, local_shard)) {
    return Status::FailedPrecondition("shard reassignment in progress");
  }
  int from = shard_task_[local_shard];
  for (const auto& t : tasks_) {
    if (t && !t->draining && t->node == node && t->id != from) {
      ReassignShard(local_shard, t->id);
      return Status::OK();
    }
  }
  return Status::NotFound("no other task on that node");
}

// ---------------------------------------------------------------------------
// Receiver daemon (single entrance).
// ---------------------------------------------------------------------------

bool ElasticExecutor::CanAccept() const {
  int64_t cap = static_cast<int64_t>(rt_->config().task_queue_cap) *
                std::max(1, num_tasks());
  return total_queued_ + reserved() < cap;
}

void ElasticExecutor::OnTupleArrive(Tuple t) { AdmitOne(std::move(t)); }

void ElasticExecutor::OnTupleBatch(const Tuple* tuples, size_t count) {
  // Bulk arrival path (channel micro-batching): one delivery event admits
  // the whole run, in order.
  for (size_t i = 0; i < count; ++i) AdmitOne(tuples[i]);
}

void ElasticExecutor::AdmitOne(Tuple t) {
  ConsumeReservation();
  rt_->StampArrival(op_, &t);
  ++metrics_.arrivals;
  metrics_.bytes_in += t.size_bytes;
  int local = static_cast<int>(rt_->partition(op_)->ShardOf(t.key)) -
              static_cast<int>(first_shard_);
  ELASTICUTOR_CHECK_MSG(local >= 0 && local < num_shards_,
                        "tuple routed to wrong elastic executor");
  // Offered-load statistic for the balancer (arrival-based: processed
  // counts equalize under saturation and would hide imbalance).
  shard_cost_ns_[local] += rt_->topology().spec(op_).mean_cost_ns;
  if (shard_paused_[local]) {
    pause_buffers_[local].push_back(t);
    ++total_queued_;
    return;
  }
  RouteToTask(local, t);
}

void ElasticExecutor::RouteToTask(int local_shard, const Tuple& t) {
  int task_id = shard_task_.at(local_shard);
  ELASTICUTOR_CHECK_MSG(task_id >= 0, "shard not mapped to a task");
  const TaskPtr& target = task(task_id);
  if (target->node == home_node_) {
    EnqueueToTask(target, QueueItem{t, -1});
    return;
  }
  // Remote task: main process -> remote process over the network. Delivery
  // order per (home, node) is FIFO, which the labeling protocol needs.
  ++total_queued_;  // Counted from dispatch so CanAccept sees in-flight load.
  rt_->net()->Send(home_node_, target->node, t.size_bytes,
                   Purpose::kRemoteTask, [this, target, t]() {
                     --total_queued_;
                     EnqueueToTask(target, QueueItem{t, -1});
                   });
}

void ElasticExecutor::EnqueueToTask(const TaskPtr& target, QueueItem item) {
  if (!item.is_label()) ++total_queued_;
  target->pending.push_back(std::move(item));
  if (!target->busy) TaskStartNext(target);
}

// ---------------------------------------------------------------------------
// Task processing loop.
// ---------------------------------------------------------------------------

void ElasticExecutor::TaskStartNext(const TaskPtr& task) {
  if (task->busy) return;
  while (!task->pending.empty()) {
    // Labeling markers carry no computation. Handling is deferred one event
    // so that FinishReassign's pause-buffer flush cannot re-enter this loop;
    // no tuple of the paused shard can be behind the label, so deferral
    // cannot reorder anything.
    if (task->pending.front().is_label()) {
      const int64_t label_id = task->pending.front().label_id;
      task->pending.pop_front();
      rt_->exec()->After(0, [this, label_id]() { OnLabel(label_id); });
      continue;
    }
    if (task->outputs_outstanding >= rt_->config().task_output_credit) {
      task->waiting_credit = true;  // Resumed when the emitter frees credit.
      return;
    }
    Tuple t = task->pending.front().tuple;
    task->pending.pop_front();
    --total_queued_;
    task->busy = true;
    const OperatorSpec& spec = rt_->topology().spec(op_);
    SimDuration nominal = SampleCost(spec, rt_->config(), t, &task->rng);
    // Injected node slowdown (straggler / degraded node) stretches the
    // actual service time on this task's node; busy_ns includes it, so the
    // scheduler's µ estimate drops and it compensates with capacity.
    SimDuration cost = static_cast<SimDuration>(
        static_cast<double>(nominal) * rt_->faults()->cpu_factor(task->node));
    // Backend-specific per-tuple state-access cost (e.g. the external KV's
    // read + write round trips, with their bytes attributed to the network).
    // It is node-independent, so it counts as nominal work below.
    SimDuration access = backend_->OnTupleAccess(task->node);
    cost += access;
    metrics_.busy_ns += cost;
    // Per-task service-rate statistics for the capacity-aware balancer, and
    // per-node busy attribution for the bench/scenario layer.
    task->work_ns += nominal + access;
    task->busy_ns += cost;
    rt_->metrics()->OnBusy(task->node, cost);
    rt_->exec()->After(cost, [this, task, t]() {
      task->busy = false;
      OnProcessingComplete(task, t);
    });
    return;
  }
}

void ElasticExecutor::OnProcessingComplete(const TaskPtr& task, Tuple t) {
  const OperatorSpec& spec = rt_->topology().spec(op_);
  int local = static_cast<int>(rt_->partition(op_)->ShardOf(t.key)) -
              static_cast<int>(first_shard_);
  BatchEmitContext emit(rt_, op_, t.created_at);
  // The backend decides which store a task on this node reads and writes
  // (the external KV routes every task to the home-standing store; the
  // shared backend to the task's process store).
  ProcessStateStore* store = backend_->AccessStore(task->node);
  ApplyOperatorLogic(rt_->topology(), spec, op_, t, store,
                     global_shard(local), &emit, &task->rng);
  ++metrics_.processed;
  rt_->OnProcessed(op_, t);

  if (!emit.empty()) {
    EnqueueEmitter(task, emit.TakeJob());
  }
  TaskStartNext(task);
}

// ---------------------------------------------------------------------------
// Emitter daemon (single exit).
// ---------------------------------------------------------------------------

void ElasticExecutor::EnqueueEmitter(const TaskPtr& task,
                                     Runtime::FlushJob* job) {
  std::vector<Runtime::PendingEmit>& outs = job->emits;
  task->outputs_outstanding += static_cast<int>(outs.size());
  if (task->node == home_node_) {
    for (const auto& out : outs) {
      emitter_queue_.push_back(EmitterEntry{out, task});
    }
    rt_->ReleaseFlushJob(job);
    RunEmitter();
    return;
  }
  // Remote task -> emitter transfer. One message carries the batch; the
  // pooled job itself rides in the delivery closure (releasing it here and
  // moving the vector out would strip the pool entry's capacity and
  // re-allocate on every remote output batch).
  int64_t bytes = 0;
  for (const auto& out : outs) bytes += out.tuple.size_bytes;
  rt_->net()->Send(task->node, home_node_, bytes, Purpose::kRemoteTask,
                   [this, task, job]() {
                     for (const auto& out : job->emits) {
                       emitter_queue_.push_back(EmitterEntry{out, task});
                     }
                     rt_->ReleaseFlushJob(job);
                     RunEmitter();
                   });
}

void ElasticExecutor::RunEmitter() {
  if (emitter_flushing_) return;
  const size_t max_batch = static_cast<size_t>(
      std::max(1, rt_->config().max_batch_tuples));
  while (!emitter_queue_.empty()) {
    if (max_batch == 1) {
      // Tuple-at-a-time: route the head in place, no scratch copy.
      if (rt_->RouteRun(home_node_, &emitter_queue_.front().emit, 1,
                        &metrics_) == 0) {
        ScheduleEmitterRetry();
        return;
      }
      PopEmitted(1);
      continue;
    }
    // Coalesce the queue's leading same-operator run into the scratch ONCE;
    // RouteRun then consumes it in destination-executor sub-runs by offset
    // (no re-copying), so outputs of many tasks bound for the same
    // downstream channel share one message. Only leading runs batch — the
    // single exit stays strictly FIFO. Nothing can append to the queue
    // while this loop runs (completions are asynchronous events), so the
    // snapshot stays aligned with the queue head.
    emitter_scratch_.clear();
    const OperatorId to_op = emitter_queue_.front().emit.to_op;
    for (size_t i = 0;
         i < emitter_queue_.size() && emitter_scratch_.size() < max_batch;
         ++i) {
      const EmitterEntry& entry = emitter_queue_[i];
      if (entry.emit.to_op != to_op) break;
      emitter_scratch_.push_back(entry.emit);
    }
    size_t offset = 0;
    while (offset < emitter_scratch_.size()) {
      size_t routed =
          rt_->RouteRun(home_node_, emitter_scratch_.data() + offset,
                        emitter_scratch_.size() - offset, &metrics_);
      if (routed == 0) {
        ScheduleEmitterRetry();
        return;
      }
      offset += routed;
      PopEmitted(routed);
    }
  }
}

void ElasticExecutor::ScheduleEmitterRetry() {
  // Downstream full or paused: single retry loop keeps FIFO order through
  // the single exit. Jittered like every back-pressure retry.
  emitter_flushing_ = true;
  SimDuration delay = static_cast<SimDuration>(
      rt_->config().emit_retry_ns * (0.5 + rng_.NextDouble()));
  rt_->exec()->After(delay, [this]() {
    emitter_flushing_ = false;
    RunEmitter();
  });
}

void ElasticExecutor::PopEmitted(size_t count) {
  for (size_t i = 0; i < count; ++i) {
    TaskPtr task = std::move(emitter_queue_.front().task);
    emitter_queue_.pop_front();
    --task->outputs_outstanding;
    if (task->waiting_credit && !task->busy &&
        task->outputs_outstanding < rt_->config().task_output_credit) {
      task->waiting_credit = false;
      TaskStartNext(task);
    }
  }
}

// ---------------------------------------------------------------------------
// Core management.
// ---------------------------------------------------------------------------

int ElasticExecutor::num_tasks() const {
  int count = 0;
  for (const auto& t : tasks_) {
    if (t && !t->draining) ++count;
  }
  return count;
}

int ElasticExecutor::tasks_on(NodeId node) const {
  int count = 0;
  for (const auto& t : tasks_) {
    if (t && !t->draining && t->node == node) ++count;
  }
  return count;
}

std::unordered_map<NodeId, int> ElasticExecutor::core_distribution() const {
  std::unordered_map<NodeId, int> dist;
  for (const auto& t : tasks_) {
    if (t && !t->draining) ++dist[t->node];
  }
  return dist;
}

std::vector<std::pair<int, int>> ElasticExecutor::placement() const {
  std::vector<std::pair<int, int>> out;
  for (const auto& t : tasks_) {
    if (!t || t->draining) continue;
    auto it = std::lower_bound(
        out.begin(), out.end(), t->node,
        [](const std::pair<int, int>& e, NodeId v) { return e.first < v; });
    if (it != out.end() && it->first == t->node) {
      ++it->second;
    } else {
      out.insert(it, {t->node, 1});
    }
  }
  return out;
}

int64_t ElasticExecutor::state_bytes() const { return backend_->TotalBytes(); }

Status ElasticExecutor::AddCore(NodeId node) {
  // The very first task adopts all shards, whose state lives in the home
  // store — so it must be local.
  bool first = num_tasks() == 0 && shard_task_[0] < 0;
  if (first && node != home_node_) {
    return Status::FailedPrecondition(
        "first core of an elastic executor must be on its local node");
  }
  auto task = std::make_shared<Task>();
  task->id = static_cast<int>(tasks_.size());
  task->node = node;
  task->rng = rng_.Fork(0x7A5C + tasks_.size());
  tasks_.push_back(task);
  backend_->AddProcess(node);  // New remote process (idempotent).
  if (first) {
    for (int s = 0; s < num_shards_; ++s) shard_task_[s] = task->id;
  }
  return Status::OK();
}

Status ElasticExecutor::RemoveCore(NodeId node, EventFn done) {
  // Victim: a non-draining task on `node`; prefer the one with fewest shards.
  TaskPtr victim;
  int victim_shards = 0;
  for (const auto& t : tasks_) {
    if (!t || t->draining || t->node != node) continue;
    int count = 0;
    for (int s = 0; s < num_shards_; ++s) {
      if (shard_task_[s] == t->id) ++count;
    }
    if (!victim || count < victim_shards) {
      victim = t;
      victim_shards = count;
    }
  }
  if (!victim) return Status::NotFound("no removable task on node");
  if (num_tasks() <= 1) {
    return Status::FailedPrecondition("cannot remove the last core");
  }
  if (transition_pending()) {
    // A concurrent reassignment could otherwise target the victim (or a
    // concurrent removal could drain a reassignment's destination).
    return Status::FailedPrecondition("executor transition in progress");
  }
  // Evacuate all its shards to the least-loaded remaining tasks (normalized
  // by task speed, so a slow surviving task is not handed a fair share).
  std::vector<int> shards;
  for (int s = 0; s < num_shards_; ++s) {
    if (shard_task_[s] == victim->id && !protocol_.InTransition(op_, s)) {
      shards.push_back(s);
    }
  }
  std::vector<double> slot_load(tasks_.size(), 0.0);
  std::vector<bool> allowed(tasks_.size(), false);
  for (const auto& t : tasks_) {
    if (t && !t->draining && t->id != victim->id) allowed[t->id] = true;
  }
  for (int s = 0; s < num_shards_; ++s) {
    if (shard_task_[s] >= 0) slot_load[shard_task_[s]] += shard_load_[s];
  }
  std::vector<double> capacity = TaskCapacities();
  auto plan = balance::PlanEvacuation(
      shards, shard_load_, &slot_load, victim->id, allowed,
      rt_->config().balancer.capacity_aware ? &capacity : nullptr);
  if (!plan.ok()) return plan.status();
  std::vector<balance::Move> moves = std::move(plan).value();

  victim->draining = true;
  ++removals_in_progress_;

  if (moves.empty()) {
    TryFinalizeRemoval(victim, std::move(done));
    return Status::OK();
  }
  // Finalized once the last evacuation completes (FinishReassign).
  victim->on_removed = std::move(done);
  for (const auto& move : moves) ReassignShard(move.shard, move.to);
  return Status::OK();
}

void ElasticExecutor::TryFinalizeRemoval(const TaskPtr& victim, EventFn done) {
  // The task may still hold in-flight work: unprocessed labels, unflushed
  // outputs, or (if remote) data that was on the wire when draining started.
  if (!victim->pending.empty() || victim->busy ||
      victim->outputs_outstanding > 0) {
    rt_->exec()->After(Millis(1),
                      [this, victim, done = std::move(done)]() mutable {
                        TryFinalizeRemoval(victim, std::move(done));
                      });
    return;
  }
  for (int s = 0; s < num_shards_; ++s) {
    ELASTICUTOR_CHECK_MSG(shard_task_[s] != victim->id,
                          "draining task still owns a shard");
  }
  NodeId node = victim->node;
  tasks_[victim->id] = nullptr;
  --removals_in_progress_;
  // Tear down an emptied remote process (the backend checks that no shard
  // is left inside its store).
  if (node != home_node_ && tasks_on(node) == 0) {
    backend_->RemoveProcess(node);
  }
  if (done) done();
}

// ---------------------------------------------------------------------------
// Consistent shard reassignment (§3.3).
// ---------------------------------------------------------------------------

void ElasticExecutor::ReassignShard(int local_shard, int to_task) {
  int from_task = shard_task_.at(local_shard);
  ELASTICUTOR_CHECK(tasks_.at(to_task) && !tasks_.at(to_task)->draining);
  NodeId from_node = task(from_task)->node;
  NodeId to_node = task(to_task)->node;
  const bool migrate = backend_->NeedsMigration(from_node, to_node);
  const int64_t id =
      protocol_.Request(op_, local_shard, from_task, to_task, migrate);
  protocol_.Claim(id);

  if (!migrate) {
    // Intra-process state sharing / external store: no state moves — pause
    // and label immediately; the pause lasts only for the label drain.
    PauseAndLabel(id);
    return;
  }
  // 1. Begin the migration. Under chunked-live the shard keeps processing
  // while its snapshot streams over; under sync-blob this completes
  // synchronously and the pause covers the whole transfer.
  MigrationEngine::Handle handle = rt_->migration()->Begin(
      backend_->store(from_node), global_shard(local_shard), from_node,
      to_node, backend_->local_copy_bytes_per_sec(),
      [this, id]() { PauseAndLabel(id); });
  protocol_.AttachHandle(id, std::move(handle));
}

void ElasticExecutor::PauseAndLabel(int64_t id) {
  // 2. Pause routing for the shard; 3. one labeling tuple, FIFO path.
  const ReassignProtocol::Move& m =
      protocol_.Flip(id, /*labels=*/1, rt_->exec()->now());
  shard_paused_[m.shard] = 1;
  const TaskPtr& target = task(m.from);
  if (target->node == home_node_) {
    EnqueueToTask(target, QueueItem{Tuple{}, id});
    return;
  }
  // The label must follow previously routed data tuples through the same
  // network channel (per-(src,dst) FIFO).
  rt_->net()->Send(home_node_, target->node, 64, Purpose::kRemoteTask,
                   [this, target, id]() {
                     EnqueueToTask(target, QueueItem{Tuple{}, id});
                   });
}

void ElasticExecutor::OnLabel(int64_t id) {
  // The task popped the label: its pending tuples of the shard are all
  // processed.
  ELASTICUTOR_CHECK(protocol_.OnLabel(id, rt_->exec()->now()));
  const ReassignProtocol::Move* m =
      protocol_.TryFinalize(id, /*source_quiescent=*/false);
  ELASTICUTOR_CHECK(m != nullptr);
  if (!m->moves_state) {
    // No state moves (intra-process sharing / external store): flip now.
    FinishReassign(id, MigrationStats{});
    return;
  }
  // 4. Ship the remainder (whole blob for sync-blob, dirty delta for
  // chunked-live) and install the shard at the destination process.
  const MigrationEngine::Handle handle = m->handle;
  NodeId to_node = task(m->to)->node;
  rt_->migration()->Finalize(
      handle, backend_->store(to_node),
      [this, id](const MigrationStats& stats) { FinishReassign(id, stats); });
}

void ElasticExecutor::FinishReassign(int64_t id, const MigrationStats& stats) {
  // The shard now lives at the destination: staged, installed and resumed
  // in one step on this backend.
  protocol_.Staged(id);
  ELASTICUTOR_CHECK(protocol_.BeginInstall(id) != nullptr);
  const ReassignProtocol::Move m = protocol_.Complete(id);

  TaskPtr from = task(m.from);
  NodeId to_node = task(m.to)->node;

  // 5. Update the shard->task map, then resume routing.
  shard_task_[m.shard] = m.to;
  shard_paused_[m.shard] = 0;
  auto& buffer = pause_buffers_[m.shard];
  while (!buffer.empty()) {
    Tuple t = buffer.front();
    buffer.pop_front();
    --total_queued_;  // RouteToTask/EnqueueToTask re-counts it.
    RouteToTask(m.shard, t);
  }

  SimTime now = rt_->exec()->now();
  ElasticityOp op;
  op.inter_node = from->node != to_node;
  op.sync_ns = m.drained_at - m.flip_at;
  op.precopy_ns = stats.precopy_ns;
  op.migration_ns = now - m.drained_at;
  op.pause_ns = now - m.flip_at;
  op.moved_bytes = stats.moved_bytes;
  op.delta_bytes = stats.delta_bytes;
  rt_->metrics()->OnElasticityOp(op);

  // Evacuation before exit: a draining task goes once no move references
  // it, i.e. after its last evacuation.
  if (from->draining && !protocol_.References(op_, m.from)) {
    TryFinalizeRemoval(from, std::move(from->on_removed));
  }
}

// ---------------------------------------------------------------------------
// Intra-executor load balancing (§3.1).
// ---------------------------------------------------------------------------

void ElasticExecutor::RunBalanceRound() {
  if (balancing_frozen_) return;
  const BalancerConfig& cfg = rt_->config().balancer;
  // Refresh per-shard load EWMAs from the cost counters.
  double interval_s = ToSeconds(cfg.interval_ns);
  for (int s = 0; s < num_shards_; ++s) {
    double rate =
        static_cast<double>(shard_cost_ns_[s] - shard_cost_prev_[s]) / 1e9 /
        interval_s;
    shard_cost_prev_[s] = shard_cost_ns_[s];
    shard_load_[s] = cfg.shard_load_alpha * rate +
                     (1.0 - cfg.shard_load_alpha) * shard_load_[s];
  }
  RefreshTaskSpeeds();
  if (transition_pending()) return;
  if (num_tasks() <= 1) return;

  // Balance on shrinkage-smoothed loads. With few arrivals per shard the
  // per-shard estimates are noise; the prior (every shard expected to carry
  // ~average traffic) then dominates and the balancer effectively spreads
  // by cardinality — crucial right after a scale-out, when the whole key
  // subspace sits on one task and almost nothing has been observed yet. As
  // samples accumulate the measured loads take over.
  int64_t observed = metrics_.arrivals - last_balance_arrivals_;
  last_balance_arrivals_ = metrics_.arrivals;
  double total_load = 0.0;
  for (double l : shard_load_) total_load += l;
  double avg_load = total_load / static_cast<double>(num_shards_);
  double pseudo = 2.0 * static_cast<double>(num_shards_);
  double prior =
      avg_load * pseudo / (pseudo + static_cast<double>(observed)) + 1e-12;
  std::vector<double> loads = shard_load_;
  for (double& l : loads) l += prior;

  std::vector<bool> frozen(tasks_.size(), false);
  for (size_t i = 0; i < tasks_.size(); ++i) {
    frozen[i] = !tasks_[i] || tasks_[i]->draining;
  }
  std::vector<int> assignment = shard_task_;
  std::vector<double> capacity = TaskCapacities();
  balance::PlanMoves(loads, &assignment, static_cast<int>(tasks_.size()),
                     cfg.theta, cfg.max_moves_per_round, &frozen,
                     cfg.capacity_aware ? &capacity : nullptr);
  // Execute the final-assignment diff: one reassignment per shard, even if
  // the planner routed a shard through several intermediate slots.
  for (int s = 0; s < num_shards_; ++s) {
    if (assignment[s] != shard_task_[s]) {
      ReassignShard(s, assignment[s]);
    }
  }
}

void ElasticExecutor::RefreshTaskSpeeds() {
  const BalancerConfig& cfg = rt_->config().balancer;
  for (const auto& t : tasks_) {
    if (!t) continue;
    int64_t dwork = t->work_ns - t->work_prev_ns;
    int64_t dbusy = t->busy_ns - t->busy_prev_ns;
    t->work_prev_ns = t->work_ns;
    t->busy_prev_ns = t->busy_ns;
    // Without a meaningful busy window there is no observation — idleness
    // is not evidence of slowness. Drift the estimate toward nominal
    // instead, so a task that was fully drained (zero shards => zero busy
    // time, forever) gets probed with load again after its node heals; a
    // still-slow node pushes the estimate right back down on the next
    // observation.
    if (dbusy < cfg.task_speed_min_busy_ns || dwork <= 0) {
      t->speed += cfg.task_speed_recovery * (1.0 - t->speed);
      continue;
    }
    double observed = static_cast<double>(dwork) / static_cast<double>(dbusy);
    t->speed = std::max(1e-3, cfg.task_speed_alpha * observed +
                                  (1.0 - cfg.task_speed_alpha) * t->speed);
  }
}

std::vector<double> ElasticExecutor::TaskCapacities() const {
  std::vector<double> capacity(tasks_.size(), 0.0);
  for (const auto& t : tasks_) {
    if (t) capacity[t->id] = t->speed;
  }
  return capacity;
}

double ElasticExecutor::TaskSpeedOn(NodeId node) const {
  double speed = 1.0;
  for (const auto& t : tasks_) {
    if (t && !t->draining && t->node == node) speed = std::min(speed, t->speed);
  }
  return speed;
}

double ElasticExecutor::CurrentImbalance() const {
  std::vector<double> loads, caps;
  std::vector<double> by_slot(tasks_.size(), 0.0);
  for (int s = 0; s < num_shards_; ++s) {
    if (shard_task_[s] >= 0) by_slot[shard_task_[s]] += shard_load_[s];
  }
  for (const auto& t : tasks_) {
    if (t && !t->draining) {
      loads.push_back(by_slot[t->id]);
      caps.push_back(t->speed);
    }
  }
  return balance::ImbalanceFactor(
      loads, rt_->config().balancer.capacity_aware ? &caps : nullptr);
}

int ElasticExecutor::shards_on_task_count(NodeId node) const {
  int count = 0;
  for (int s = 0; s < num_shards_; ++s) {
    int id = shard_task_[s];
    if (id >= 0 && tasks_[id] && tasks_[id]->node == node) ++count;
  }
  return count;
}

}  // namespace elasticutor
