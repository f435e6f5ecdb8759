#include "rc/rc_controller.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "state/migration_engine.h"

namespace elasticutor {

RcController::RcController(Runtime* rt, const Cluster* cluster,
                           CoreLedger* ledger,
                           std::vector<OperatorId> managed_ops)
    : rt_(rt), cluster_(cluster), ledger_(ledger) {
  for (OperatorId op : managed_ops) {
    OpState state;
    state.op = op;
    state.lambda = Ewma(0.5);
    state.mu = Ewma(0.5);
    const OperatorSpec& spec = rt_->topology().spec(op);
    double cost_ns =
        static_cast<double>(std::max<SimDuration>(spec.mean_cost_ns, 1));
    state.mu.Add(1e9 / cost_ns);
    ops_.push_back(std::move(state));
  }
}

std::shared_ptr<SingleTaskExecutor> RcController::exec(
    OperatorId op, ExecutorIndex index) const {
  return std::static_pointer_cast<SingleTaskExecutor>(
      rt_->executor(op, index));
}

std::vector<double> RcController::ExecutorCapacities(OperatorId op) const {
  std::vector<double> caps(rt_->executors(op).size(), 1.0);
  for (size_t e = 0; e < caps.size(); ++e) {
    NodeId node = exec(op, static_cast<ExecutorIndex>(e))->home_node();
    caps[e] = CoreSpeed(rt_->faults()->cpu_factor(node));
  }
  return caps;
}

void RcController::Start() {
  SimDuration interval = rt_->config().rc.interval_ns;
  last_run_ = rt_->exec()->now();
  rt_->exec()->Periodic(rt_->exec()->now() + interval, interval,
                       [this](SimTime) {
                         RunOnce();
                         return true;
                       });
}

void RcController::MeasureInterval(SimDuration dt) {
  double dt_s = std::max(ToSeconds(dt), 1e-6);
  // µ estimation reads the backend's unified telemetry (exec/telemetry.h)
  // rather than walking ExecutorMetrics: same numbers under the sim
  // adapter, but the controller no longer assumes a simulated executor
  // behind each worker row. Arrivals/queue depths stay on the executor walk
  // (instantaneous queue state is not part of the snapshot).
  const exec::TelemetrySnapshot snap = rt_->exec()->SampleTelemetry();
  std::map<OperatorId, std::pair<int64_t, int64_t>> proc_busy;
  for (const auto& w : snap.workers) {
    proc_busy[w.op].first += w.processed;
    proc_busy[w.op].second += w.busy_ns;
  }
  for (auto& s : ops_) {
    // Per-shard offered load over this interval.
    const auto& routed = rt_->partition(s.op)->offered();
    if (s.prev_routed.size() != routed.size()) {
      s.prev_routed.assign(routed.size(), 0);
    }
    s.interval_load.assign(routed.size(), 0.0);
    for (size_t i = 0; i < routed.size(); ++i) {
      int64_t delta = std::max<int64_t>(0, routed[i] - s.prev_routed[i]);
      s.interval_load[i] = static_cast<double>(delta);
      s.prev_routed[i] = routed[i];
    }

    int64_t arrivals = 0, queued = 0;
    for (const auto& ex : rt_->executors(s.op)) {
      arrivals += ex->metrics().arrivals;
      queued += ex->queued();
    }
    const auto pb = proc_busy.find(s.op);
    const int64_t processed = pb != proc_busy.end() ? pb->second.first : 0;
    const int64_t busy = pb != proc_busy.end() ? pb->second.second : 0;
    int64_t d_arr = std::max<int64_t>(0, arrivals - s.prev_arrivals);
    int64_t d_proc = std::max<int64_t>(0, processed - s.prev_processed);
    int64_t d_busy = std::max<int64_t>(0, busy - s.prev_busy_ns);
    s.prev_arrivals = arrivals;
    s.prev_processed = processed;
    s.prev_busy_ns = busy;
    s.lambda.Add(static_cast<double>(d_arr) / dt_s +
                 static_cast<double>(queued) / dt_s);
    if (d_proc > 0 && d_busy > 0) {
      s.mu.Add(static_cast<double>(d_proc) / ToSeconds(d_busy));
    }
  }
}

void RcController::RunOnce() {
  SimTime now = rt_->exec()->now();
  SimDuration dt = now - last_run_;
  last_run_ = now;
  if (dt <= 0) dt = rt_->config().rc.interval_ns;
  MeasureInterval(dt);
  if (active_) return;  // Global serialization: one repartition at a time.

  const RcConfig& cfg = rt_->config().rc;

  // Operator scaling via the shared performance model.
  std::vector<int> targets;
  if (cfg.enable_rescale && ops_.size() >= 1) {
    std::vector<ExecutorDemand> demands(ops_.size());
    for (size_t i = 0; i < ops_.size(); ++i) {
      demands[i].lambda = ops_[i].lambda.value();
      demands[i].mu = std::max(ops_[i].mu.value(), 1e-6);
    }
    AllocationResult alloc = AllocateCores(
        demands, cluster_->total_cores(),
        ToSeconds(rt_->config().scheduler.latency_target_ns), true);
    targets = alloc.cores;
  }

  // Pick the operator most in need: first any rescale beyond hysteresis,
  // shrinks first (they free cores), otherwise the worst imbalance over θ.
  OperatorId chosen = -1;
  int chosen_count = 0;
  for (size_t i = 0; i < ops_.size(); ++i) {
    int current = static_cast<int>(rt_->executors(ops_[i].op).size());
    if (targets.empty()) break;
    int gap = targets[i] - current;
    int hysteresis = std::max(2, current / 5);
    if (gap <= -hysteresis) {
      chosen = ops_[i].op;
      chosen_count = targets[i];
      break;
    }
    if (gap >= hysteresis && chosen < 0) {
      chosen = ops_[i].op;
      chosen_count = std::min(targets[i], current + ledger_->TotalFree());
      if (chosen_count == current) chosen = -1;
    }
  }
  if (chosen < 0) {
    double worst = cfg.imbalance_threshold;
    for (auto& s : ops_) {
      // Per-executor offered load from the interval's shard loads,
      // normalized by fault-plane-derived executor capacities: a straggler
      // node's executors look overloaded even when raw shares are equal.
      const auto& map = rt_->partition(s.op)->map();
      std::vector<double> loads(rt_->executors(s.op).size(), 0.0);
      for (size_t shard = 0; shard < s.interval_load.size(); ++shard) {
        loads[map[shard]] += s.interval_load[shard];
      }
      std::vector<double> caps = ExecutorCapacities(s.op);
      double delta = balance::ImbalanceFactor(
          loads, cfg.capacity_aware ? &caps : nullptr);
      if (delta > worst) {
        worst = delta;
        chosen = s.op;
        chosen_count = static_cast<int>(loads.size());
      }
    }
  }
  if (chosen >= 0) {
    Status st = StartRepartition(chosen, chosen_count);
    if (!st.ok()) {
      std::fprintf(stderr, "[WARN] RC repartition failed to start: %s\n",
                   st.ToString().c_str());
    }
  }
}

Status RcController::TriggerRepartition(OperatorId op, int new_count) {
  if (active_) return Status::FailedPrecondition("repartition in progress");
  if (new_count == 0) {
    new_count = static_cast<int>(rt_->executors(op).size());
  }
  return StartRepartition(op, new_count);
}

Status RcController::ProbeMoveShard(OperatorId op, ShardId shard,
                                    ExecutorIndex to) {
  if (active_) return Status::FailedPrecondition("repartition in progress");
  OperatorPartition* part = rt_->partition(op);
  if (shard < 0 || shard >= part->num_shards()) {
    return Status::InvalidArgument("shard out of range");
  }
  int from = part->ExecutorOfShard(shard);
  if (from == to) return Status::InvalidArgument("shard already there");

  auto repart = std::make_unique<Repartition>();
  repart->op = op;
  repart->moves = {balance::Move{shard, from, to}};
  repart->final_count = static_cast<int>(rt_->executors(op).size());
  repart->migration_ns.assign(1, 0);
  repart->migrated_bytes.assign(1, 0);
  repart->inter_node.assign(1, false);
  active_ = std::move(repart);
  ++repartitions_started_;

  rt_->partition(op)->set_paused(true);
  active_->start = rt_->exec()->now();
  rt_->exec()->After(SyncCoordinationDelay(op), [this]() { DrainPoll(); });
  return Status::OK();
}

Status RcController::StartRepartition(OperatorId op, int new_count) {
  OperatorPartition* part = rt_->partition(op);
  const RcConfig& cfg = rt_->config().rc;
  const int old_count = static_cast<int>(rt_->executors(op).size());
  new_count = std::max(1, new_count);

  // Per-shard offered loads from the last measured interval (uniform
  // epsilon so unobserved shards still balance by cardinality).
  const int num_shards = part->num_shards();
  std::vector<double> shard_load(num_shards, 1e-3);
  for (const auto& s : ops_) {
    if (s.op != op) continue;
    for (size_t shard = 0; shard < s.interval_load.size(); ++shard) {
      shard_load[shard] += s.interval_load[shard];
    }
  }

  // Pick nodes for executors beyond old_count before planning, so the
  // planner sees their capacities. Placement prefers the fastest node with
  // a free core (fault-plane CPU factor): scale-out avoids stragglers.
  std::vector<NodeId> grow_nodes;
  {
    std::vector<int> free(cluster_->num_nodes(), 0);
    for (int i = 0; i < cluster_->num_nodes(); ++i) {
      free[i] = ledger_->FreeOn(i);
    }
    for (int e = old_count; e < new_count; ++e) {
      NodeId node = -1;
      for (int i = 0; i < cluster_->num_nodes(); ++i) {
        NodeId candidate = (e + i) % cluster_->num_nodes();
        if (free[candidate] <= 0) continue;
        if (node < 0 ||
            (cfg.capacity_aware &&
             rt_->faults()->cpu_factor(candidate) <
                 rt_->faults()->cpu_factor(node))) {
          node = candidate;
        }
        if (!cfg.capacity_aware) break;  // Baseline: first fit.
      }
      if (node < 0) {
        return Status::ResourceExhausted("no free core for new RC executor");
      }
      --free[node];
      grow_nodes.push_back(node);
    }
  }

  // Per-slot capacities from the fault plane: an executor pinned to a
  // straggler node serves at 1/cpu_factor of nominal speed.
  int slots = std::max(old_count, new_count);
  std::vector<double> capacity = ExecutorCapacities(op);
  capacity.resize(slots, 1.0);
  for (int e = old_count; e < slots; ++e) {
    NodeId node = grow_nodes[e - old_count];
    capacity[e] = CoreSpeed(rt_->faults()->cpu_factor(node));
  }
  const std::vector<double>* caps = cfg.capacity_aware ? &capacity : nullptr;

  // Plan the new map: evacuate executors beyond new_count, then rebalance.
  std::vector<int> assignment = part->map();
  std::vector<double> slot_load(slots, 0.0);
  for (int s = 0; s < num_shards; ++s) {
    slot_load[assignment[s]] += shard_load[s];
  }

  if (new_count < old_count) {
    std::vector<bool> allowed(slots, false);
    for (int e = 0; e < new_count; ++e) allowed[e] = true;
    for (int victim = new_count; victim < old_count; ++victim) {
      std::vector<int> owned;
      for (int s = 0; s < num_shards; ++s) {
        if (assignment[s] == victim) owned.push_back(s);
      }
      auto evac = balance::PlanEvacuation(owned, shard_load, &slot_load,
                                          victim, allowed, caps);
      if (!evac.ok()) return evac.status();
      for (const auto& mv : *evac) assignment[mv.shard] = mv.to;
    }
  }
  std::vector<double> plan_capacity(capacity.begin(),
                                    capacity.begin() + new_count);
  balance::PlanMoves(shard_load, &assignment, new_count,
                     cfg.imbalance_threshold,
                     /*max_moves=*/256, /*frozen=*/nullptr,
                     caps != nullptr ? &plan_capacity : nullptr);
  // One sequential reassignment per shard whose final owner changed.
  std::vector<balance::Move> moves;
  for (int s = 0; s < num_shards; ++s) {
    if (assignment[s] != part->map()[s]) {
      moves.push_back(balance::Move{s, part->map()[s], assignment[s]});
    }
  }
  if (moves.empty() && new_count == old_count) {
    return Status::OK();  // Already balanced; nothing to do.
  }

  // Grow the executor set up front: new executors join with no shards, so
  // routing cannot reach them until the per-move map updates land.
  auto executors = rt_->executors(op);
  for (int e = old_count; e < new_count; ++e) {
    NodeId node = grow_nodes[e - old_count];
    ELASTICUTOR_CHECK(ledger_->Acquire(node, MakeExecutorId(op, e)) >= 0);
    auto ex = std::make_shared<SingleTaskExecutor>(rt_, op, e, node);
    executors.push_back(ex);
  }

  auto repart = std::make_unique<Repartition>();
  repart->op = op;
  repart->moves = std::move(moves);
  repart->final_count = new_count;
  size_t n_moves = repart->moves.size();
  repart->migration_ns.assign(n_moves, 0);
  repart->migrated_bytes.assign(n_moves, 0);
  repart->inter_node.assign(n_moves, false);
  rt_->SetExecutors(op, std::move(executors));

  active_ = std::move(repart);
  ++repartitions_started_;

  // (a) Pause all upstream executors of the operator.
  rt_->partition(active_->op)->set_paused(true);
  active_->start = rt_->exec()->now();
  rt_->exec()->After(SyncCoordinationDelay(active_->op),
                    [this]() { DrainPoll(); });
  return Status::OK();
}

SimDuration RcController::SyncCoordinationDelay(OperatorId op) const {
  const RcConfig& cfg = rt_->config().rc;
  int64_t upstream_executors = 0;
  for (OperatorId up : rt_->topology().upstream(op)) {
    upstream_executors += static_cast<int64_t>(rt_->executors(up).size());
  }
  return cfg.control_rtt_ns + upstream_executors * cfg.coord_per_upstream_ns;
}

void RcController::DrainPoll() {
  // (b) Wait for all in-flight tuples of the operator to be processed.
  OperatorId op = active_->op;
  bool drained = rt_->inflight(op) == 0;
  if (drained) {
    for (const auto& ex : rt_->executors(op)) {
      auto ste = std::static_pointer_cast<SingleTaskExecutor>(ex);
      if (!ste->idle()) {
        drained = false;
        break;
      }
    }
  }
  if (!drained) {
    rt_->exec()->After(Millis(1), [this]() { DrainPoll(); });
    return;
  }
  active_->drain_done = rt_->exec()->now();
  MigrateBatch();
}

void RcController::MigrateBatch() {
  // (c) Migrate the state of every moved shard through the shared
  // MigrationEngine, transfers in parallel (serialized per NIC by the
  // network model). The operator is globally paused, so RC is inherently a
  // sync-blob migrator; same-node handoffs are free (intra-process state
  // sharing, §3.2 — RC gets the same mechanism for fairness).
  OperatorId op = active_->op;
  if (active_->moves.empty()) {
    UpdateRoutingAndResume();
    return;
  }
  active_->pending_migrations = static_cast<int>(active_->moves.size());
  for (size_t i = 0; i < active_->moves.size(); ++i) {
    const balance::Move& mv = active_->moves[i];
    auto from = exec(op, mv.from);
    auto to = exec(op, mv.to);
    active_->inter_node[i] = from->home_node() != to->home_node();
    rt_->migration()->MigrateSync(
        from->state_store(), to->state_store(), mv.shard, from->home_node(),
        to->home_node(), /*local_copy_bytes_per_sec=*/0.0,
        [this, i](const MigrationStats& stats) {
          active_->migration_ns[i] = stats.finalize_ns;
          active_->migrated_bytes[i] = stats.moved_bytes;
          if (--active_->pending_migrations == 0) UpdateRoutingAndResume();
        });
  }
}

void RcController::UpdateRoutingAndResume() {
  // (d) Update the routing tables of all upstream executors, then resume.
  SimDuration update_delay = SyncCoordinationDelay(active_->op);
  rt_->exec()->After(update_delay, [this, update_delay]() {
    OperatorPartition* part = rt_->partition(active_->op);
    std::vector<int> map = part->map();
    for (const balance::Move& mv : active_->moves) {
      map[mv.shard] = mv.to;
    }
    int count = static_cast<int>(rt_->executors(active_->op).size());
    ELASTICUTOR_CHECK(part->SetMap(std::move(map), count).ok());

    // One ElasticityOp per moved shard: each experienced the full global
    // synchronization plus its own state-transfer time. Everything happens
    // inside the global pause — there is no live pre-copy phase in RC.
    SimDuration sync = (active_->drain_done - active_->start) + update_delay;
    for (size_t i = 0; i < active_->moves.size(); ++i) {
      ElasticityOp op;
      op.inter_node = active_->inter_node[i];
      op.sync_ns = sync;
      op.precopy_ns = 0;
      op.migration_ns = active_->migration_ns[i];
      op.pause_ns = sync + active_->migration_ns[i];
      op.moved_bytes = active_->migrated_bytes[i];
      op.delta_bytes = active_->migrated_bytes[i];
      rt_->metrics()->OnElasticityOp(op);
      ++shard_moves_done_;
    }
    part->set_paused(false);
    FinishRepartition();
  });
}

void RcController::FinishRepartition() {
  OperatorId op = active_->op;
  // Drop executors beyond the final count and release their cores. Their
  // shards were all evacuated by the planned moves.
  auto executors = rt_->executors(op);
  if (static_cast<int>(executors.size()) > active_->final_count) {
    for (int e = active_->final_count;
         e < static_cast<int>(executors.size()); ++e) {
      auto ste = std::static_pointer_cast<SingleTaskExecutor>(executors[e]);
      ELASTICUTOR_CHECK_MSG(ste->state_store()->num_shards() == 0,
                            "removed RC executor still holds shards");
      int core =
          ledger_->ReleaseOneOf(ste->home_node(), MakeExecutorId(op, e));
      ELASTICUTOR_CHECK(core >= 0);
    }
    executors.resize(active_->final_count);
    std::vector<int> map = rt_->partition(op)->map();
    ELASTICUTOR_CHECK(
        rt_->partition(op)->SetMap(std::move(map), active_->final_count).ok());
    rt_->SetExecutors(op, std::move(executors));
  }
  // Reset shard statistics for the next epoch.
  for (const auto& ex : rt_->executors(op)) {
    std::static_pointer_cast<SingleTaskExecutor>(ex)->ResetShardLoad();
  }
  active_.reset();
}

}  // namespace elasticutor
