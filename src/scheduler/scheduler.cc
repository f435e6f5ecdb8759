#include "scheduler/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <chrono>
#include <queue>
#include <utility>


namespace elasticutor {

double SchedulerTiming::MaxCycleMs() const {
  double best = 0.0;
  for (double v : cycle_ms) best = std::max(best, v);
  return best;
}

double SchedulerTiming::P99CycleMs() const {
  if (cycle_ms.empty()) return 0.0;
  std::vector<double> sorted = cycle_ms;
  size_t idx = static_cast<size_t>(0.99 * (sorted.size() - 1));
  std::nth_element(sorted.begin(), sorted.begin() + idx, sorted.end());
  return sorted[idx];
}

DynamicScheduler::DynamicScheduler(
    Runtime* rt, const Cluster* cluster, CoreLedger* ledger,
    std::vector<std::shared_ptr<ElasticExecutor>> executors)
    : rt_(rt), cluster_(cluster), ledger_(ledger) {
  const SchedulerConfig& cfg = rt_->config().scheduler;
  states_.reserve(executors.size());
  for (auto& ex : executors) {
    ExecutorState state;
    state.executor = std::move(ex);
    state.lambda = Ewma(cfg.metric_alpha);
    state.mu = Ewma(cfg.metric_alpha);
    state.intensity = Ewma(cfg.metric_alpha);
    // Seed µ from the operator's declared mean cost so the first cycles have
    // a sane service-rate estimate.
    const OperatorSpec& spec = rt_->topology().spec(state.executor->op());
    state.mu.Add(1e9 / static_cast<double>(std::max<SimDuration>(
                           spec.mean_cost_ns, 1)));
    states_.push_back(std::move(state));
  }
}

void DynamicScheduler::Start() {
  SimDuration interval = rt_->config().scheduler.interval_ns;
  last_run_ = rt_->exec()->now();
  rt_->exec()->Periodic(rt_->exec()->now() + interval, interval,
                       [this](SimTime) {
                         RunOnce();
                         return true;
                       });
}

void DynamicScheduler::MeasureInterval(SimDuration dt) {
  double dt_s = std::max(ToSeconds(dt), 1e-6);
  for (auto& s : states_) {
    const ExecutorMetrics& m = s.executor->metrics();
    int64_t offered_now = s.executor->offered_count();
    // Counters may have been reset (warm-up boundary); clamp diffs.
    int64_t offered = std::max<int64_t>(0, offered_now - s.prev_offered);
    int64_t processed = std::max<int64_t>(0, m.processed - s.prev_processed);
    int64_t busy = std::max<int64_t>(0, m.busy_ns - s.prev_busy_ns);
    int64_t bytes =
        std::max<int64_t>(0, (m.bytes_in + m.bytes_out) - s.prev_bytes);
    s.prev_offered = offered_now;
    s.prev_processed = m.processed;
    s.prev_busy_ns = m.busy_ns;
    s.prev_bytes = m.bytes_in + m.bytes_out;

    // Demand = offered load (pre-back-pressure): admitted arrivals are
    // capped at a starved executor's capacity and would hide its need.
    s.lambda.Add(static_cast<double>(offered) / dt_s);
    if (processed > 0 && busy > 0) {
      s.mu.Add(static_cast<double>(processed) / (ToSeconds(busy)));
    }
    int cores = std::max(1, s.executor->num_tasks());
    s.intensity.Add(static_cast<double>(bytes) / dt_s / cores);
  }
}

int DynamicScheduler::AvailableCores() const {
  int total = 0;
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    if (rt_->faults()->available(i)) total += cluster_->cores(i);
  }
  return total;
}

std::vector<int> DynamicScheduler::ComputeTargets() {
  const SchedulerConfig& cfg = rt_->config().scheduler;
  std::vector<ExecutorDemand> demands(states_.size());
  for (size_t j = 0; j < states_.size(); ++j) {
    demands[j].lambda = states_[j].lambda.value();
    demands[j].mu = std::max(states_[j].mu.value(), 1e-6);
  }
  AllocationResult alloc =
      AllocateCores(demands, AvailableCores(),
                    ToSeconds(cfg.latency_target_ns), cfg.allocate_all_cores);
  return alloc.cores;
}

void DynamicScheduler::RunOnce() {
  using WallClock = std::chrono::steady_clock;
  auto wall_ms = [](WallClock::time_point a, WallClock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  SimTime now = rt_->exec()->now();
  SimDuration dt = now - last_run_;
  last_run_ = now;
  if (dt <= 0) dt = rt_->config().scheduler.interval_ns;
  auto wall_measure = WallClock::now();
  MeasureInterval(dt);

  const SchedulerConfig& cfg = rt_->config().scheduler;
  auto wall_start = WallClock::now();

  std::vector<int> targets = ComputeTargets();
  // Deadband: a ±1-core difference is within measurement noise; chasing it
  // would churn shards every cycle. Exception: a starved executor gets its
  // increase — holding it back would cap the whole pipeline at
  // min_j(µ_j·k_j / demand-share_j). Starvation is offered demand at or
  // beyond current capacity (ρ = λ/µk ≳ 1), *not* busy-time utilization:
  // back-pressure retry gaps keep even a drowning executor's tasks
  // partially idle (and on a straggler node µ itself has collapsed), so a
  // utilization test would never fire exactly when it matters.
  std::vector<bool> starved(states_.size(), false);
  for (size_t j = 0; j < states_.size(); ++j) {
    int current = states_[j].executor->num_tasks();
    starved[j] = targets[j] > current &&
                 states_[j].lambda.value() >=
                     0.95 * std::max(states_[j].mu.value(), 1e-9) * current;
    if (!starved[j] && std::abs(targets[j] - current) <= 1) {
      targets[j] = std::max(1, current);
    }
  }
  const int available_cores = AvailableCores();
  if (rt_->config().scheduler.allocate_all_cores) {
    // The deadband must not strand capacity: hand leftover cores to the
    // executors with the highest per-core utilization. A grant only changes
    // the grantee's utilization (its target grew), so a max-heap with
    // recompute-on-pop staleness replaces the per-core O(m) argmax scan;
    // (util, -j) keys reproduce the scan's smallest-index tie-break.
    int total_target = 0;
    for (int t : targets) total_target += t;
    if (total_target < available_cores) {
      auto util_of = [&](int j) {
        return std::max(states_[j].lambda.value(), 0.0) /
               (std::max(states_[j].mu.value(), 1e-9) * targets[j]);
      };
      std::priority_queue<std::pair<double, int>> heap;
      for (int j = 0; j < static_cast<int>(states_.size()); ++j) {
        heap.push({util_of(j), -j});
      }
      while (total_target < available_cores) {
        auto [util, neg_j] = heap.top();
        heap.pop();
        int j = -neg_j;
        double fresh = util_of(j);
        if (fresh != util) {  // Stale (j was granted since the push).
          heap.push({fresh, neg_j});
          continue;
        }
        ++targets[j];
        ++total_target;
        heap.push({util_of(j), neg_j});
      }
    }
  }

  // Build the assignment problem from the *actual* current distribution —
  // except on unavailable (crashed) nodes: those get zero capacity and their
  // current cores are excluded from the input, so the solver plans the full
  // target on healthy nodes. ExecuteDiff diffs against the real distribution,
  // which turns the exclusion into removals on the dead node plus additions
  // elsewhere — the evacuation. (Excluded cores also don't enter the
  // migration-cost/pause estimate: the pause-budget brake must never defer
  // an evacuation.)
  AssignmentInput in;
  in.node_capacity.resize(cluster_->num_nodes());
  in.node_speed.resize(cluster_->num_nodes());
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    in.node_capacity[i] =
        rt_->faults()->available(i) ? cluster_->cores(i) : 0;
    // Fault-plane-derived per-core speed (perf_model.h): the assignment
    // greedy steers new cores away from straggler nodes.
    in.node_speed[i] = rt_->faults()->available(i)
                           ? CoreSpeed(rt_->faults()->cpu_factor(i))
                           : 0.0;
  }
  const int m = static_cast<int>(states_.size());
  in.home.resize(m);
  in.target = targets;
  in.state_bytes.resize(m);
  in.data_intensity.resize(m);
  in.current = SparseAssignment(m);
  in.phi = cfg.phi_bytes_per_sec;
  for (int j = 0; j < m; ++j) {
    const auto& s = states_[j];
    in.home[j] = s.executor->home_node();
    in.state_bytes[j] = static_cast<double>(s.executor->state_bytes());
    in.data_intensity[j] = s.intensity.value();
    int current_total = 0;
    for (const auto& [node, count] : s.executor->placement()) {
      if (!rt_->faults()->available(node)) continue;  // Being evacuated.
      in.current.exec[j].push_back({node, count});
      current_total += count;
    }
    // Executors mid-transition keep their current allocation this round.
    if (s.executor->transition_pending()) {
      in.target[j] = std::max(1, current_total);
    }
  }
  // The pin-to-current overrides can push Σ targets over capacity; shave
  // back to feasibility, largest targets first. Prefer shaving executors
  // that are *not* starved: under an undetected straggler the starved
  // executors (whose µ collapsed with the node's speed) are exactly the
  // ones that must grow — shaving them first would pin the whole cluster
  // at the status quo while the deadband pins everyone else.
  {
    int total_target = 0;
    for (int j = 0; j < m; ++j) total_target += in.target[j];
    // Largest-target-first victim selection via a (target, -j) max-heap —
    // same victims as the old per-core O(m) argmax scan (ties go to the
    // smallest index). An entry is stale iff its stored target no longer
    // matches; a fresh entry is pushed after every decrement, so the valid
    // maximum is always resident. Eligibility (mid-transition, starved in
    // pass 1) is fixed within a pass and checked at push; target > 1 only
    // decreases, so entries matching the current target still satisfy it.
    auto shave = [&](bool allow_starved) {
      if (total_target <= available_cores) return;
      std::priority_queue<std::pair<int, int>> heap;
      for (int j = 0; j < m; ++j) {
        if (states_[j].executor->transition_pending() || in.target[j] <= 1) {
          continue;
        }
        if (!allow_starved && starved[j]) continue;
        heap.push({in.target[j], -j});
      }
      while (total_target > available_cores && !heap.empty()) {
        auto [target, neg_j] = heap.top();
        heap.pop();
        int j = -neg_j;
        if (target != in.target[j]) continue;  // Stale.
        --in.target[j];
        --total_target;
        if (in.target[j] > 1) heap.push({in.target[j], neg_j});
      }
    };
    shave(/*allow_starved=*/false);
    shave(/*allow_starved=*/true);
  }

  auto wall_solve = WallClock::now();
  AssignmentOutput out =
      cfg.naive_assignment
          ? NaiveAssignment(in, static_cast<uint64_t>(cycles_ / 8))
          : SolveAssignment(in);

  auto wall_end = WallClock::now();
  scheduling_wall_ms_total_ += wall_ms(wall_start, wall_end);
  ++cycles_;
  timing_.measure_ms += wall_ms(wall_measure, wall_start);
  timing_.targets_ms += wall_ms(wall_start, wall_solve);
  timing_.solve_ms += wall_ms(wall_solve, wall_end);
  // The diff phase (everything below, including the pause estimate) runs
  // inside this guard so every exit path records its cycle breakdown.
  struct CycleRecorder {
    SchedulerTiming* timing;
    WallClock::time_point cycle_start, diff_start;
    ~CycleRecorder() {
      auto end = WallClock::now();
      timing->diff_ms +=
          std::chrono::duration<double, std::milli>(end - diff_start).count();
      timing->cycle_ms.push_back(
          std::chrono::duration<double, std::milli>(end - cycle_start)
              .count());
    }
  } recorder{&timing_, wall_measure, wall_end};

  if (!out.feasible) {
    std::fputs("[WARN] scheduler: no feasible assignment this cycle\n", stderr);
    return;
  }
  last_phi_used_ = out.phi_used;
  last_migration_cost_ = out.migration_cost_bytes;

  // Translate the planned state movement into an expected routing-pause
  // cost under the configured migration strategy: chunked-live pauses only
  // for the dirty delta, sync-blob for the whole transfer. The label-drain
  // term is the time a task needs to clear one full pending queue; the
  // dirty rate is the mean per-core write intensity hitting one shard.
  if (!states_.empty()) {
    PauseCostModel pause_model;
    pause_model.bandwidth_bytes_per_sec =
        rt_->net()->config().bandwidth_bytes_per_sec;
    pause_model.chunked_live = rt_->config().state.migration.strategy ==
                               MigrationStrategy::kChunkedLive;
    double mean_mu = 0.0, mean_intensity = 0.0;
    int64_t total_shards = 0;
    for (const auto& s : states_) {
      mean_mu += std::max(s.mu.value(), 1e-6);
      mean_intensity += std::max(s.intensity.value(), 0.0);
      total_shards += s.executor->num_shards();
    }
    const double m_exec = static_cast<double>(states_.size());
    mean_mu /= m_exec;
    mean_intensity /= m_exec;
    double shards_per_exec =
        std::max(1.0, static_cast<double>(total_shards) / m_exec);
    pause_model.sync_seconds =
        static_cast<double>(rt_->config().task_queue_cap) / mean_mu;
    pause_model.dirty_bytes_per_sec = mean_intensity / shards_per_exec;
    // A plan that moves no state pauses nothing (core additions on the home
    // node are free under intra-process state sharing).
    last_pause_estimate_s_ =
        out.migration_cost_bytes <= 0.0
            ? 0.0
            : EstimatePauseSeconds(
                  pause_model,
                  static_cast<int64_t>(out.migration_cost_bytes));
    // The estimate is a decision input, not just telemetry: a cycle whose
    // planned state movement would pause routing beyond the budget is
    // deferred (the next cycle re-plans from fresh measurements; under
    // chunked-live the same movement prices far cheaper than sync-blob).
    double budget = cfg.pause_budget_s;
    if (budget > 0.0 && last_pause_estimate_s_ > budget) {
      std::fprintf(stderr, "[WARN] scheduler: deferring reconfiguration "
                   "(estimated pause %g s exceeds budget %g s)\n",
                   last_pause_estimate_s_, budget);
      return;
    }
  }

  ExecuteDiff(out.x);
}

void DynamicScheduler::ExecuteDiff(const SparseAssignment& x) {
  const int m = static_cast<int>(states_.size());
  pending_adds_.clear();  // Drop stale intents from the previous cycle.

  // Diff the plan against the *live* distribution — on a crashed node the
  // solver input excluded the cores, so the diff turns into removals there
  // plus additions elsewhere: the evacuation. The plan's moves come
  // (node, executor)-ascending, the order the old dense delta scan issued.
  SparseAssignment live(m);
  for (int j = 0; j < m; ++j) live.exec[j] = states_[j].executor->placement();
  DiffPlan plan = PlanCoreDiff(live, x);

  // Queue additions; issue at most one removal per executor per cycle (the
  // executor serializes transitions anyway), then satisfy additions as cores
  // free up.
  for (const CoreMove& mv : plan.adds) {
    pending_adds_[mv.node].push_back(mv.executor);
  }
  std::vector<bool> removal_issued(m, false);
  for (const CoreMove& mv : plan.removal_candidates) {
    int j = mv.executor;
    if (removal_issued[j]) continue;
    if (states_[j].executor->transition_pending()) continue;
    NodeId node = mv.node;
    auto& s = states_[j];
    Status st = s.executor->RemoveCore(node, [this, node, j]() {
      // Core physically free once the task drained.
      int core = ledger_->ReleaseOneOf(node, states_[j].executor->id());
      ELASTICUTOR_CHECK_MSG(core >= 0, "ledger out of sync on removal");
      TryDrainPendingAdds(node);
    });
    if (st.ok()) {
      removal_issued[j] = true;
      ++core_moves_issued_;
    }
  }
  // Satisfy whatever fits in the currently free cores; the rest chain on
  // removal completions (and are discarded at the next cycle, which
  // recomputes the diff from fresh state). Walk the planned nodes in
  // ascending order (plan.adds is node-major) — the historical drain order.
  for (size_t k = 0; k < plan.adds.size();) {
    NodeId node = plan.adds[k].node;
    while (k < plan.adds.size() && plan.adds[k].node == node) ++k;
    TryDrainPendingAdds(node);
  }
}

void DynamicScheduler::TryDrainPendingAdds(NodeId node) {
  auto it = pending_adds_.find(node);
  if (it == pending_adds_.end()) return;
  auto& adds = it->second;
  while (!adds.empty() && ledger_->FreeOn(node) > 0) {
    int j = adds.front();
    adds.pop_front();
    auto& s = states_[j];
    int core = ledger_->Acquire(node, s.executor->id());
    ELASTICUTOR_CHECK(core >= 0);
    Status st = s.executor->AddCore(node);
    if (!st.ok()) {
      ledger_->Release(node, core);
      continue;
    }
    ++core_moves_issued_;
    // React immediately: pull load onto the new task.
    s.executor->RunBalanceRound();
  }
}

}  // namespace elasticutor
