#include "engine/runtime.h"

#include <algorithm>

#include "sim/event_fn.h"

namespace elasticutor {

namespace {

// Delivery closures are concrete structs (not lambdas) so their size is
// explicit: both fit EventFn's inline storage even inside the Network's
// Delivery<> wrapper — the per-tuple data path never touches the heap.

/// Unbatched delivery: one tuple straight to its executor.
struct DeliverOne {
  ExecutorBase* target;
  Tuple tuple;
  void operator()() { target->OnTupleArrive(tuple); }
};
static_assert(sizeof(DeliverOne) + sizeof(void*) <= EventFn::kInlineBytes,
              "single-tuple delivery must stay inline in EventFn");

}  // namespace

/// Batched delivery: the tuples travel in a pooled vector referenced by raw
/// pointer; the pool entry is recycled after the handoff.
struct Runtime::BatchDeliver {
  Runtime* rt;
  ExecutorBase* target;
  std::vector<Tuple>* batch;
  void operator()() {
    target->OnTupleBatch(batch->data(), batch->size());
    rt->ReleaseTupleBatch(batch);
  }
};

/// Back-pressure retry for an in-flight flush job. The job owns all state
/// (emits, emitter, continuation), so the scheduled closure is two pointers
/// — inline in EventFn even while the rest of the system is saturated.
struct Runtime::FlushRetry {
  Runtime* rt;
  FlushJob* job;
  void operator()() { rt->FlushJobStep(job); }
};

Runtime::Runtime(exec::ExecutionBackend* exec, Network* net,
                 MigrationEngine* migration, const NodeFaultPlane* faults,
                 const Topology* topology, const EngineConfig* config,
                 EngineMetrics* metrics)
    : exec_(exec),
      net_(net),
      migration_(migration),
      faults_(faults),
      topology_(topology),
      config_(config),
      metrics_(metrics),
      validate_(config->validate_key_order),
      max_batch_(static_cast<size_t>(std::max(1, config->max_batch_tuples))),
      rng_(config->seed, 0x5eed5eed) {
  int n = topology_->num_operators();
  partitions_.resize(n);
  executors_.resize(n);
  inflight_.assign(n, 0);
}

void Runtime::SetPartition(OperatorId op,
                           std::unique_ptr<OperatorPartition> p) {
  partitions_.at(op) = std::move(p);
}

void Runtime::SetExecutors(OperatorId op, std::vector<ExecutorPtr> executors) {
  executors_.at(op) = std::move(executors);
}

bool Runtime::TryRoute(NodeId from, OperatorId to_op, const Tuple& t,
                       ExecutorMetrics* emitter_metrics) {
  // A single-tuple run: delegating keeps the admission semantics (paused
  // check, reservation, accounting) in exactly one place, so the batch-1
  // path can never diverge from the tuple-at-a-time one.
  PendingEmit emit{to_op, t};
  return RouteRun(from, &emit, 1, emitter_metrics) == 1;
}

size_t Runtime::RouteRun(NodeId from, const PendingEmit* emits, size_t n,
                         ExecutorMetrics* emitter_metrics) {
  ELASTICUTOR_CHECK(n > 0);
  const OperatorId to_op = emits[0].to_op;
  OperatorPartition* part = partitions_.at(to_op).get();
  if (part->paused()) return 0;
  const ExecutorIndex ei = part->ExecutorOfKey(emits[0].tuple.key);
  ExecutorBase* target = executors_.at(to_op).at(ei).get();
  if (!target->CanAccept()) return 0;

  // Multi-slot reservation: extend the run while the next emission shares
  // this destination and the target still has a slot. CanAccept() sees the
  // reservations made so far, so a run can never overshoot the queue bound.
  target->ReserveSlot();
  size_t k = 1;
  while (k < n && k < max_batch_ && emits[k].to_op == to_op &&
         part->ExecutorOfKey(emits[k].tuple.key) == ei &&
         target->CanAccept()) {
    target->ReserveSlot();
    ++k;
  }

  inflight_.at(to_op) += static_cast<int64_t>(k);
  int64_t bytes = 0;
  for (size_t i = 0; i < k; ++i) bytes += emits[i].tuple.size_bytes;
  if (emitter_metrics != nullptr) {
    emitter_metrics->bytes_out += bytes;
  }
  metrics_->OnTuplesRouted(static_cast<int64_t>(k));

  NodeId dst = target->home_node();
  if (k == 1) {
    net_->Send(from, dst, bytes, Purpose::kInterOperator,
               DeliverOne{target, emits[0].tuple});
    return 1;
  }
  // One message, one per-message overhead, one delivery event for the run.
  std::vector<Tuple>* batch = AcquireTupleBatch();
  batch->reserve(k);
  for (size_t i = 0; i < k; ++i) batch->push_back(emits[i].tuple);
  net_->Send(from, dst, bytes, Purpose::kInterOperator,
             BatchDeliver{this, target, batch});
  return k;
}

Runtime::FlushJob* Runtime::AcquireFlushJob() {
  if (free_jobs_.empty()) {
    job_pool_.push_back(std::make_unique<FlushJob>());
    return job_pool_.back().get();
  }
  FlushJob* job = free_jobs_.back();
  free_jobs_.pop_back();
  return job;
}

void Runtime::ReleaseFlushJob(FlushJob* job) {
  job->emits.clear();  // Keeps capacity for the next acquisition.
  job->emitter.reset();
  job->next = 0;
  job->done = nullptr;
  free_jobs_.push_back(job);
}

std::vector<Tuple>* Runtime::AcquireTupleBatch() {
  if (free_batches_.empty()) {
    batch_pool_.push_back(std::make_unique<std::vector<Tuple>>());
    return batch_pool_.back().get();
  }
  std::vector<Tuple>* batch = free_batches_.back();
  free_batches_.pop_back();
  return batch;
}

void Runtime::ReleaseTupleBatch(std::vector<Tuple>* batch) {
  batch->clear();
  free_batches_.push_back(batch);
}

void Runtime::FlushBatch(ExecutorPtr emitter, FlushJob* job, EventFn done) {
  job->emitter = std::move(emitter);
  job->next = 0;
  job->done = std::move(done);
  FlushJobStep(job);
}

void Runtime::FlushJobStep(FlushJob* job) {
  while (job->next < job->emits.size()) {
    size_t routed =
        RouteRun(job->emitter->home_node(), job->emits.data() + job->next,
                 job->emits.size() - job->next, &job->emitter->metrics());
    if (routed == 0) {
      // Blocked: retry the remaining suffix later (jittered to avoid
      // synchronized herds). The emitter stays alive via the job.
      SimDuration delay = static_cast<SimDuration>(
          config_->emit_retry_ns * (0.5 + rng_.NextDouble()));
      exec_->After(delay, FlushRetry{this, job});
      return;
    }
    job->next += routed;
  }
  // The job returns to the pool before `done` runs (so a re-entrant flush
  // can reuse it), but the emitter must outlive `done` — the continuation
  // typically captures the emitter's raw `this` (see FlushBatch's
  // contract).
  ExecutorPtr emitter = std::move(job->emitter);
  EventFn done = std::move(job->done);
  ReleaseFlushJob(job);
  if (done) done();
}

void Runtime::OnProcessed(OperatorId op, const Tuple& t) {
  --inflight_.at(op);
  if (validate_) {
    validator_.OnProcess(op, t.key, t.arrival_seq);
  }
  if (topology_->is_sink(op)) {
    metrics_->OnSinkTuple(exec_->now(), t.created_at);
  }
}

void Runtime::StampArrival(OperatorId op, Tuple* t) {
  if (validate_) {
    t->arrival_seq = validator_.OnArrive(op, t->key);
  }
}

void Runtime::ResetMetricsAfterWarmup() {
  metrics_->ResetAfterWarmup();
  net_->ResetCounters();
  metrics_->BeginPerfWindow(static_cast<int64_t>(exec_->events_executed()),
                            static_cast<int64_t>(exec_->heap_events()),
                            EventFn::heap_allocations());
  for (auto& execs : executors_) {
    for (auto& e : execs) e->metrics().Reset();
  }
}

}  // namespace elasticutor
