#include "engine/engine.h"

#include <algorithm>
#include <cmath>

#include "elastic/elastic_executor.h"
#include "engine/single_task_executor.h"
#include "exec/native_backend.h"
#include "exec/native_runtime.h"
#include "exec/sim_backend.h"
#include "rc/rc_controller.h"
#include "scheduler/scheduler.h"
#include "state/migration_engine.h"

namespace elasticutor {

const char* ParadigmName(Paradigm p) {
  switch (p) {
    case Paradigm::kStatic:
      return "static";
    case Paradigm::kResourceCentric:
      return "resource-centric";
    case Paradigm::kElastic:
      return "elasticutor";
  }
  return "?";
}

namespace {

/// The sim's TelemetrySnapshot: one worker row per executor from its
/// ExecutorMetrics, one source row per spout. Per-shard rows stay empty —
/// the simulator's shard accounting lives inside the elastic executors.
exec::TelemetrySnapshot SampleSimTelemetry(SimTime now,
                                           const Topology& topology,
                                           const Runtime& runtime,
                                           const EngineMetrics& metrics,
                                           bool elastic) {
  exec::TelemetrySnapshot snap;
  snap.sampled_at = now;
  for (OperatorId op = 0; op < topology.num_operators(); ++op) {
    const bool is_source = topology.spec(op).is_source;
    const bool is_sink = topology.is_sink(op);
    for (const auto& ex : runtime.executors(op)) {
      if (is_source) {
        exec::SourceTelemetry st;
        st.op = op;
        st.index = ex->index();
        st.emitted = std::static_pointer_cast<SpoutExecutor>(ex)->emitted();
        snap.source_emitted += st.emitted;
        snap.sources.push_back(st);
        continue;
      }
      exec::WorkerTelemetry wt;
      wt.op = op;
      wt.index = ex->index();
      wt.busy_ns = ex->metrics().busy_ns;
      wt.processed = ex->metrics().processed;
      if (is_sink) wt.sink_tuples = ex->metrics().processed;
      if (elastic) {
        auto el = std::static_pointer_cast<ElasticExecutor>(ex);
        wt.speed = el->TaskSpeedOn(el->home_node());
        snap.reassignments_done += el->reassignments_done();
      }
      snap.total_processed += wt.processed;
      snap.total_busy_ns += wt.busy_ns;
      snap.workers.push_back(wt);
    }
  }
  snap.sink_count = metrics.sink_count();
  return snap;
}

}  // namespace

Engine::Engine(Topology topology, EngineConfig config)
    : topology_(std::move(topology)), config_(config) {
  if (config_.backend == exec::BackendKind::kNative) {
    exec_ = std::make_unique<exec::NativeBackend>();
  } else {
    exec_ = std::make_unique<exec::SimBackend>();
  }
  cluster_ = std::make_unique<Cluster>(config_.num_nodes,
                                       config_.cores_per_node);
  ledger_ = std::make_unique<CoreLedger>(*cluster_);
  faults_ = std::make_unique<NodeFaultPlane>(config_.num_nodes);
  net_ = std::make_unique<Network>(exec_.get(), config_.num_nodes,
                                   config_.net);
  migration_ = std::make_unique<MigrationEngine>(exec_.get(), net_.get(),
                                                 config_.state.migration);
  metrics_ = std::make_unique<EngineMetrics>();
  runtime_ = std::make_unique<Runtime>(exec_.get(), net_.get(),
                                       migration_.get(), faults_.get(),
                                       &topology_, &config_, metrics_.get());
}

Engine::~Engine() = default;

std::vector<int> Engine::ComputeStaticProvisioning() const {
  // Expected relative CPU demand per operator: unit rate per source,
  // propagated through selectivities, times mean processing cost. This is
  // the "enough executors to fully utilize all CPU cores" provisioning of
  // the paper's static baseline (also RC's starting point).
  const int n = topology_.num_operators();
  std::vector<double> rate(n, 0.0);
  std::vector<double> demand(n, 0.0);
  for (OperatorId op : topology_.topo_order()) {
    const OperatorSpec& spec = topology_.spec(op);
    if (spec.is_source) {
      rate[op] = 1.0;
      continue;
    }
    for (OperatorId up : topology_.upstream(op)) {
      rate[op] += rate[up] * topology_.spec(up).selectivity;
    }
    demand[op] = rate[op] * static_cast<double>(spec.mean_cost_ns);
  }
  // Sources emit their input as-is (selectivity applies to processing ops;
  // for sources we use selectivity 1 implicitly via rate[op] above).
  double total_demand = 0.0;
  for (OperatorId op = 0; op < n; ++op) total_demand += demand[op];

  std::vector<int> counts(n, 0);
  if (total_demand <= 0) return counts;
  int total_cores = cluster_->total_cores();
  int assigned = 0;
  std::vector<std::pair<double, OperatorId>> remainders;
  for (OperatorId op = 0; op < n; ++op) {
    if (demand[op] <= 0) continue;
    double exact = total_cores * demand[op] / total_demand;
    counts[op] = std::max(1, static_cast<int>(std::floor(exact)));
    assigned += counts[op];
    remainders.emplace_back(exact - std::floor(exact), op);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  size_t r = 0;
  while (assigned < total_cores && !remainders.empty()) {
    ++counts[remainders[r % remainders.size()].second];
    ++assigned;
    ++r;
  }
  while (assigned > total_cores) {
    // Shave the largest counts down to fit.
    OperatorId biggest = -1;
    for (OperatorId op = 0; op < n; ++op) {
      if (counts[op] > 1 && (biggest < 0 || counts[op] > counts[biggest])) {
        biggest = op;
      }
    }
    if (biggest < 0) break;
    --counts[biggest];
    --assigned;
  }
  return counts;
}

Status Engine::SetupSources(OperatorId op, int* next_home_node) {
  const OperatorSpec& spec = topology_.spec(op);
  if (topology_.downstream(op).size() != 1) {
    return Status::InvalidArgument("source '" + spec.name +
                                   "' must have exactly one downstream "
                                   "operator");
  }
  auto partition = std::make_unique<OperatorPartition>(
      spec.total_shards(), spec.num_executors, /*salt=*/op);
  runtime_->SetPartition(op, std::move(partition));
  std::vector<ExecutorPtr> executors;
  for (int e = 0; e < spec.num_executors; ++e) {
    NodeId home = (*next_home_node)++ % cluster_->num_nodes();
    executors.push_back(
        std::make_shared<SpoutExecutor>(runtime_.get(), op, e, home));
  }
  runtime_->SetExecutors(op, std::move(executors));
  return Status::OK();
}

Status Engine::SetupStaticLike(OperatorId op) {
  const OperatorSpec& spec = topology_.spec(op);
  int count = spec.static_executors > 0 ? spec.static_executors
                                        : provisioned_[op];
  count = std::max(1, count);
  // An executor without shards would idle forever; shard count caps the
  // useful parallelism of the static/RC paradigms.
  count = std::min(count, spec.total_shards());
  auto partition = std::make_unique<OperatorPartition>(spec.total_shards(),
                                                       count, /*salt=*/op);
  OperatorPartition* part = partition.get();
  runtime_->SetPartition(op, std::move(partition));

  std::vector<ExecutorPtr> executors;
  for (int e = 0; e < count; ++e) {
    // One core per executor, round-robin over nodes with capacity.
    NodeId node = -1;
    for (int i = 0; i < cluster_->num_nodes(); ++i) {
      NodeId candidate = (round_robin_node_ + i) % cluster_->num_nodes();
      if (ledger_->FreeOn(candidate) > 0) {
        node = candidate;
        break;
      }
    }
    if (node < 0) {
      return Status::ResourceExhausted(
          "not enough cores for static executors of '" + spec.name + "'");
    }
    round_robin_node_ = (node + 1) % cluster_->num_nodes();
    ELASTICUTOR_CHECK(ledger_->Acquire(node, MakeExecutorId(op, e)) >= 0);
    auto ex =
        std::make_shared<SingleTaskExecutor>(runtime_.get(), op, e, node);
    executors.push_back(std::move(ex));
  }
  // Install shard states on their owning executors.
  for (int s = 0; s < part->num_shards(); ++s) {
    auto owner = std::static_pointer_cast<SingleTaskExecutor>(
        executors[part->ExecutorOfShard(s)]);
    ELASTICUTOR_RETURN_NOT_OK(
        owner->state_store()->CreateShard(s, spec.shard_state_bytes));
  }
  runtime_->SetExecutors(op, std::move(executors));
  return Status::OK();
}

Status Engine::SetupElastic(OperatorId op, int* next_home_node) {
  const OperatorSpec& spec = topology_.spec(op);
  auto partition = std::make_unique<OperatorPartition>(
      spec.total_shards(), spec.num_executors, /*salt=*/op);
  partition->SetBlockedMap(spec.shards_per_executor);
  runtime_->SetPartition(op, std::move(partition));

  std::vector<ExecutorPtr> executors;
  for (int e = 0; e < spec.num_executors; ++e) {
    // Home nodes round-robin; the first core must be local.
    NodeId home = -1;
    for (int i = 0; i < cluster_->num_nodes(); ++i) {
      NodeId candidate = (*next_home_node + i) % cluster_->num_nodes();
      if (ledger_->FreeOn(candidate) > 0) {
        home = candidate;
        break;
      }
    }
    if (home < 0) {
      return Status::ResourceExhausted(
          "not enough cores to give every elastic executor one core; "
          "reduce executors per operator");
    }
    *next_home_node = (home + 1) % cluster_->num_nodes();
    auto ex = std::make_shared<ElasticExecutor>(
        runtime_.get(), op, e, home,
        /*first_shard=*/e * spec.shards_per_executor,
        /*num_shards=*/spec.shards_per_executor);
    ELASTICUTOR_RETURN_NOT_OK(ex->InitShards(spec.shard_state_bytes));
    ELASTICUTOR_CHECK(ledger_->Acquire(home, ex->id()) >= 0);
    ELASTICUTOR_RETURN_NOT_OK(ex->AddCore(home));
    executors.push_back(std::move(ex));
  }
  runtime_->SetExecutors(op, std::move(executors));
  return Status::OK();
}

Status Engine::Setup() {
  if (setup_done_) return Status::FailedPrecondition("Setup called twice");
  provisioned_ = ComputeStaticProvisioning();

  if (config_.backend == exec::BackendKind::kNative) {
    // Native: the thread/channel dataflow replaces the simulated executor
    // wiring entirely. Elasticity runs live: shards migrate between worker
    // threads through the in-channel labeling barrier, reusing the same
    // MigrationEngine the simulated controllers use.
    native_ = std::make_unique<exec::NativeRuntime>(
        &topology_, &config_,
        static_cast<exec::NativeBackend*>(exec_.get()), migration_.get(),
        metrics_.get());
    ELASTICUTOR_RETURN_NOT_OK(native_->Setup());
    setup_done_ = true;
    return Status::OK();
  }

  int source_home = 0;
  int elastic_home = 0;
  for (OperatorId op : topology_.topo_order()) {
    const OperatorSpec& spec = topology_.spec(op);
    if (spec.is_source) {
      ELASTICUTOR_RETURN_NOT_OK(SetupSources(op, &source_home));
      continue;
    }
    switch (config_.paradigm) {
      case Paradigm::kStatic:
      case Paradigm::kResourceCentric:
        ELASTICUTOR_RETURN_NOT_OK(SetupStaticLike(op));
        break;
      case Paradigm::kElastic:
        ELASTICUTOR_RETURN_NOT_OK(SetupElastic(op, &elastic_home));
        break;
    }
  }

  std::vector<OperatorId> managed;
  for (OperatorId op = 0; op < topology_.num_operators(); ++op) {
    if (!topology_.spec(op).is_source) managed.push_back(op);
  }
  if (config_.paradigm == Paradigm::kElastic) {
    std::vector<std::shared_ptr<ElasticExecutor>> elastic;
    for (OperatorId op : managed) {
      for (const auto& ex : runtime_->executors(op)) {
        elastic.push_back(std::static_pointer_cast<ElasticExecutor>(ex));
      }
    }
    scheduler_ = std::make_unique<DynamicScheduler>(
        runtime_.get(), cluster_.get(), ledger_.get(), std::move(elastic));
  } else if (config_.paradigm == Paradigm::kResourceCentric) {
    rc_ = std::make_unique<RcController>(runtime_.get(), cluster_.get(),
                                         ledger_.get(), managed);
  }
  setup_done_ = true;
  return Status::OK();
}

void Engine::Start() {
  ELASTICUTOR_CHECK_MSG(setup_done_, "Start before Setup");
  if (native_ != nullptr) {
    native_->Start();
    return;
  }
  for (OperatorId op = 0; op < topology_.num_operators(); ++op) {
    for (const auto& ex : runtime_->executors(op)) {
      ex->Start();
    }
  }
  if (scheduler_ && config_.scheduler.enabled) scheduler_->Start();
  if (rc_ && config_.rc.enabled) rc_->Start();
}

exec::TelemetrySnapshot Engine::SampleTelemetry() const {
  if (!setup_done_) return {};
  if (native_ != nullptr) return native_->SampleTelemetry();
  return SampleSimTelemetry(exec_->now(), topology_, *runtime_, *metrics_,
                            config_.paradigm == Paradigm::kElastic);
}

void Engine::ResetMetricsAfterWarmup() {
  runtime_->ResetMetricsAfterWarmup();
  metrics_reset_at_ = exec_->now();
}

void Engine::RunToCompletion() {
  if (native_ != nullptr) {
    native_->WaitDrained();
    return;
  }
  for (OperatorId op = 0; op < topology_.num_operators(); ++op) {
    const OperatorSpec& spec = topology_.spec(op);
    ELASTICUTOR_CHECK_MSG(!spec.is_source || spec.source.max_tuples > 0,
                          "RunToCompletion requires max_tuples on every "
                          "source (unbounded sources never drain)");
  }
  // Budgeted sources fall silent once their tuples are routed; the event
  // queue then drains and RunUntil returns early. Periodic control
  // processes (balancer/scheduler/RC ticks) would keep the queue non-empty
  // forever, so step in bounded windows until the sinks stop moving.
  int64_t last_sinks = -1;
  while (metrics_->sink_count() != last_sinks) {
    last_sinks = metrics_->sink_count();
    exec_->RunUntil(exec_->now() + Seconds(60));
  }
}

void Engine::StopSources() {
  if (native_ != nullptr) {
    native_->StopSources();
    return;
  }
  for (OperatorId op = 0; op < topology_.num_operators(); ++op) {
    if (!topology_.spec(op).is_source) continue;
    for (const auto& ex : runtime_->executors(op)) {
      std::static_pointer_cast<SpoutExecutor>(ex)->Stop();
    }
  }
}

void Engine::ShapeSourceRates(std::function<double(SimTime)> factor) {
  ELASTICUTOR_CHECK_MSG(factor != nullptr, "rate shaper must be callable");
  for (OperatorId op = 0; op < topology_.num_operators(); ++op) {
    OperatorSpec& spec = topology_.mutable_spec(op);
    if (!spec.is_source || spec.source.mode != SourceSpec::Mode::kTrace) {
      continue;
    }
    ELASTICUTOR_CHECK_MSG(spec.source.rate_fn != nullptr,
                          "trace source without rate_fn");
    spec.source.rate_fn = [base = spec.source.rate_fn,
                           factor](SimTime t) { return base(t) * factor(t); };
  }
}

double Engine::MeasuredThroughput() const {
  SimDuration elapsed = exec_->now() - metrics_reset_at_;
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(metrics_->sink_count()) / ToSeconds(elapsed);
}

int64_t Engine::order_violations() const {
  if (native_ != nullptr) return native_->order_violations();
  const OrderValidator* v =
      const_cast<Runtime*>(runtime_.get())->validator();
  return v == nullptr ? 0 : v->violations();
}

std::vector<std::shared_ptr<ElasticExecutor>> Engine::elastic_executors(
    OperatorId op) const {
  std::vector<std::shared_ptr<ElasticExecutor>> out;
  for (const auto& ex : runtime_->executors(op)) {
    out.push_back(std::static_pointer_cast<ElasticExecutor>(ex));
  }
  return out;
}

std::vector<std::shared_ptr<SpoutExecutor>> Engine::source_executors(
    OperatorId op) const {
  std::vector<std::shared_ptr<SpoutExecutor>> out;
  for (const auto& ex : runtime_->executors(op)) {
    out.push_back(std::static_pointer_cast<SpoutExecutor>(ex));
  }
  return out;
}

}  // namespace elasticutor
