// Core speed: per-tuple cost of the simulator hot path itself, and what
// channel micro-batching (EngineConfig::max_batch_tuples) buys. Unlike the
// figure benches this measures the HARNESS, not the modeled system: the
// deterministic columns (events / callback heap allocs / messages per
// routed tuple) are exact at a fixed seed and scale and are gated in CI via
// bench/expectations.json; wall-clock tuples/s is informational (machine-
// dependent) and reported alongside.
//
// Topology: generator -> calculator (sink), single calculator executor so
// consecutive emissions share a destination and runs coalesce fully.
// Offered load is kept below capacity, so steady state has no back-pressure
// retries and the counters isolate the per-tuple event/allocation cost:
// 3 events/tuple unbatched (spout loop, delivery, completion) amortizing
// toward 1 (completion only) as the batch grows. heap_events_per_tuple
// counts the events that took the event queue's heap: the spout loop tick
// (a constant gen_overhead_ns) and the delivery (a constant link latency)
// ride its constant-delay lanes, so only the completion, whose service
// time is sampled, takes the heap — about 1 per tuple at every batch size.
#include <chrono>

#include "harness/experiment.h"

using namespace elasticutor;
using namespace elasticutor::bench;

namespace {

const int kBatches[] = {1, 8, 64};

struct RowResult {
  PerfCounters perf;
  double tput = 0.0;
  double wall_ms = 0.0;
  double wall_tps = 0.0;
};

RowResult RunOne(Paradigm paradigm, int batch) {
  MicroOptions options;
  options.calc_cost_ns = Micros(5);
  options.gen_overhead_ns = Micros(10);
  options.calculator_executors = 1;
  // Offered rate ~50% of processing capacity: 1 spout (100k tup/s) per two
  // calculator cores (200k tup/s each at 5 us), so spouts pace generation
  // and steady state is retry-free.
  options.generator_executors = paradigm == Paradigm::kElastic ? 2 : 1;
  options.shards_per_executor = 64;
  auto workload = BuildMicroWorkload(options, /*seed=*/42);
  ELASTICUTOR_CHECK(workload.ok());
  // The static paradigm must not auto-provision the whole cluster: one
  // single-core executor keeps every emission on one destination channel.
  workload->topology.mutable_spec(workload->calculator).static_executors = 1;

  EngineConfig config;
  config.paradigm = paradigm;
  config.num_nodes = 4;
  config.scheduler.enabled = false;  // Cores are pinned for the sweep.
  config.max_batch_tuples = batch;
  // Queue capacity above the largest batch: a 64-tuple burst must admit
  // fully, or the elastic tasks' default 8-deep queues turn the measurement
  // into back-pressure dynamics instead of pure harness cost.
  config.task_queue_cap = 64;
  Engine engine(workload->topology, config);
  ELASTICUTOR_CHECK(engine.Setup().ok());
  engine.Start();

  if (paradigm == Paradigm::kElastic) {
    auto ex = engine.elastic_executors(workload->calculator)[0];
    NodeId home = ex->home_node();
    for (int extra = 0; extra < 3; ++extra) {  // 4 local cores total.
      ELASTICUTOR_CHECK(engine.ledger()->Acquire(home, ex->id()) >= 0);
      ELASTICUTOR_CHECK(ex->AddCore(home).ok());
    }
  }

  engine.RunFor(Scaled(Seconds(3)));  // Warm-up (balancer spreads shards).
  if (paradigm == Paradigm::kElastic) {
    // Freeze balancing for the measured window: reassignments are control-
    // plane work, and this bench gates the steady-state data plane.
    for (auto& ex : engine.elastic_executors(workload->calculator)) {
      ex->set_balancing_frozen(true);
    }
  }
  engine.ResetMetricsAfterWarmup();

  auto wall_start = std::chrono::steady_clock::now();
  engine.RunFor(Scaled(Seconds(8)));
  auto wall_end = std::chrono::steady_clock::now();

  RowResult r;
  r.perf = engine.Perf();
  r.tput = engine.MeasuredThroughput();
  r.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  r.wall_tps = r.wall_ms > 0.0
                   ? static_cast<double>(r.perf.routed_tuples) /
                         (r.wall_ms / 1e3)
                   : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchInit(argc, argv);
  Banner("core speed",
         "simulator hot-path cost per routed tuple vs micro-batch size");

  TablePrinter table({"paradigm", "batch", "tput(tup/s)", "routed",
                      "events_per_tuple", "heap_events_per_tuple",
                      "allocs_per_tuple", "msgs_per_tuple",
                      "events_x_vs_b1", "wall_ms", "wall_tup/s",
                      "wall_x_vs_b1"});
  table.PrintHeader();
  for (Paradigm paradigm : {Paradigm::kElastic, Paradigm::kStatic}) {
    double base_events_per_tuple = 0.0;
    double base_wall_tps = 0.0;
    for (int batch : kBatches) {
      RowResult r = RunOne(paradigm, batch);
      if (batch == 1) {
        base_events_per_tuple = r.perf.events_per_tuple();
        base_wall_tps = r.wall_tps;
      }
      double events_x = r.perf.events_per_tuple() > 0.0
                            ? base_events_per_tuple /
                                  r.perf.events_per_tuple()
                            : 0.0;
      double wall_x = base_wall_tps > 0.0 && r.wall_tps > 0.0
                          ? r.wall_tps / base_wall_tps
                          : 0.0;
      table.PrintRow({ParadigmName(paradigm), FmtInt(batch), Fmt(r.tput, 0),
                      FmtInt(r.perf.routed_tuples),
                      Fmt(r.perf.events_per_tuple(), 3),
                      Fmt(r.perf.heap_events_per_tuple(), 3),
                      Fmt(r.perf.heap_allocs_per_tuple(), 6),
                      Fmt(r.perf.messages_per_tuple(), 3), Fmt(events_x, 2),
                      Fmt(r.wall_ms, 1), Fmt(r.wall_tps, 0), Fmt(wall_x, 2)});
    }
  }
  std::printf(
      "\nevents/allocs/msgs per routed tuple are deterministic (gated in "
      "CI); wall-clock columns are informational. Unbatched the harness "
      "pays 3 events per tuple (spout loop, delivery, completion); "
      "batching amortizes all but the completion event, the only one "
      "that takes the event heap.\n");
  return 0;
}
