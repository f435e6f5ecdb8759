// Sim-vs-native equivalence: the same topology at the same seed, run once on
// the discrete-event SimBackend and once on the multithreaded NativeBackend,
// must process the identical tuple multiset and land in identical per-key
// aggregate state — "modulo timing": wall-clock, latencies and interleavings
// differ, sums and counts may not.
//
// Why this holds (and what the tests pin down): both backends fork source
// rngs from the same root in the same order, so source tuple streams are
// bit-identical; keys route through the same OperatorPartition hash (shard
// ids are global, independent of worker counts); per-tuple semantics go
// through the shared ApplyOperatorLogic; and per-key processing order is
// preserved end to end, so even floating-point accumulators agree exactly.
// Worker counts are deliberately DIFFERENT between the two runs — the
// results must not depend on them.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "elasticutor/elasticutor.h"
#include "engine/single_task_executor.h"

namespace elasticutor {
namespace {

// Per-key int64 counters of one operator (the default operator logic keeps
// one per key), accumulated across every store of the operator.
using KeyCounts = std::map<uint64_t, int64_t>;

// Per-shard (global shard id) user-state fingerprint: entry count and
// user_bytes. Captures typed state whose concrete types are private to the
// workload (e.g. the SSE order books) without naming them.
using ShardFingerprint = std::map<ShardId, std::pair<int64_t, int64_t>>;

void AccumulateCounts(const ProcessStateStore& store, KeyCounts* counts) {
  store.ForEachShard([&](ShardId, const ShardState& state) {
    for (const auto& [key, value] : state.entries) {
      const int64_t* counter = std::any_cast<int64_t>(&value);
      ASSERT_NE(counter, nullptr);
      (*counts)[key] += *counter;
    }
  });
}

void AccumulateFingerprint(const ProcessStateStore& store,
                           ShardFingerprint* fp) {
  store.ForEachShard([&](ShardId shard, const ShardState& state) {
    auto& entry = (*fp)[shard];
    entry.first += static_cast<int64_t>(state.entries.size());
    entry.second += state.user_bytes;
  });
}

// Walks every store of `op` on whichever backend `engine` runs.
template <typename Fn>
void ForEachStore(Engine* engine, OperatorId op, Fn&& fn) {
  if (engine->native() != nullptr) {
    for (int w = 0; w < engine->native()->num_workers(op); ++w) {
      fn(*engine->native()->worker_store(op, w));
    }
    return;
  }
  for (const auto& ex : engine->runtime()->executors(op)) {
    fn(*std::static_pointer_cast<SingleTaskExecutor>(ex)->state_store());
  }
}

int64_t ProcessedCount(Engine* engine, OperatorId op) {
  int64_t total = 0;
  if (engine->native() != nullptr) {
    for (const auto& wt : engine->SampleTelemetry().workers) {
      if (wt.op == op) total += wt.processed;
    }
    return total;
  }
  for (const auto& ex : engine->runtime()->executors(op)) {
    total += ex->metrics().processed;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Micro topology: generator -> calculator (per-key counters).
// ---------------------------------------------------------------------------

constexpr int64_t kMicroBudget = 3000;  // Per source executor.
constexpr int kMicroSources = 2;

MicroWorkload BuildMicroForEquivalence(uint64_t seed) {
  MicroOptions options;
  options.num_keys = 400;
  options.zipf_skew = 0.8;
  options.tuple_bytes = 64;
  options.calc_cost_ns = Micros(2);
  options.shard_state_bytes = 1 << 10;
  options.generator_executors = kMicroSources;
  options.calculator_executors = 8;
  options.shards_per_executor = 8;
  options.mode = SourceSpec::Mode::kSaturation;
  // Sources must stay slower than downstream capacity: a back-pressured sim
  // spout draws retry jitter from the SAME rng as its tuple factory, which
  // would desync the key stream from the (never-blocked) native source.
  options.gen_overhead_ns = Micros(20);
  MicroWorkload workload = BuildMicroWorkload(options, seed).value();
  workload.topology.mutable_spec(workload.generator).source.max_tuples =
      kMicroBudget;
  workload.topology.mutable_spec(workload.calculator).static_executors = 4;
  return workload;
}

EngineConfig SmallStaticConfig() {
  EngineConfig config;
  config.paradigm = Paradigm::kStatic;
  config.num_nodes = 4;
  config.cores_per_node = 4;
  config.seed = 7;
  return config;
}

TEST(NativeEquivalenceTest, MicroPerKeyCountersMatchSim) {
  // Sim run.
  MicroWorkload sim_workload = BuildMicroForEquivalence(/*seed=*/11);
  Engine sim_engine(sim_workload.topology, SmallStaticConfig());
  ASSERT_TRUE(sim_engine.Setup().ok());
  sim_engine.Start();
  sim_engine.RunToCompletion();

  // Native run: different worker count, micro-batched channels.
  MicroWorkload native_workload = BuildMicroForEquivalence(/*seed=*/11);
  EngineConfig native_config = SmallStaticConfig();
  native_config.backend = exec::BackendKind::kNative;
  native_config.native.workers_per_operator = 3;  // != sim's 4 executors.
  native_config.native.data_path.batch_tuples = 16;
  native_config.native.data_path.channel_capacity_batches = 8;
  Engine native_engine(native_workload.topology, native_config);
  ASSERT_TRUE(native_engine.Setup().ok());
  native_engine.Start();
  native_engine.RunToCompletion();

  // Identical tuple counts.
  const int64_t expected = kMicroSources * kMicroBudget;
  EXPECT_EQ(sim_engine.metrics()->sink_count(), expected);
  EXPECT_EQ(native_engine.metrics()->sink_count(), expected);
  EXPECT_EQ(native_engine.SampleTelemetry().source_emitted, expected);
  EXPECT_EQ(native_engine.SampleTelemetry().total_processed, expected);

  // Identical per-key aggregate state.
  KeyCounts sim_counts, native_counts;
  ForEachStore(&sim_engine, sim_workload.calculator,
               [&](const ProcessStateStore& s) {
                 AccumulateCounts(s, &sim_counts);
               });
  ForEachStore(&native_engine, native_workload.calculator,
               [&](const ProcessStateStore& s) {
                 AccumulateCounts(s, &native_counts);
               });
  int64_t total = 0;
  for (const auto& [key, count] : sim_counts) total += count;
  EXPECT_EQ(total, expected);
  EXPECT_EQ(sim_counts, native_counts);
}

TEST(NativeEquivalenceTest, MicroNativeIsDeterministicAcrossWorkerCounts) {
  // Two NATIVE runs with different thread counts must also agree — the
  // native data path itself cannot let parallelism leak into results.
  KeyCounts counts[2];
  const int workers[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    MicroWorkload workload = BuildMicroForEquivalence(/*seed=*/23);
    EngineConfig config = SmallStaticConfig();
    config.backend = exec::BackendKind::kNative;
    config.native.workers_per_operator = workers[run];
    config.native.data_path.batch_tuples = run == 0 ? 1 : 32;  // Batch-size invariant.
    Engine engine(workload.topology, config);
    ASSERT_TRUE(engine.Setup().ok());
    engine.Start();
    engine.RunToCompletion();
    EXPECT_EQ(engine.SampleTelemetry().sink_count,
              kMicroSources * kMicroBudget);
    ForEachStore(&engine, workload.calculator,
                 [&](const ProcessStateStore& s) {
                   AccumulateCounts(s, &counts[run]);
                 });
  }
  EXPECT_EQ(counts[0], counts[1]);
}

// ---------------------------------------------------------------------------
// SSE application: order matching + 11 downstream aggregates.
// ---------------------------------------------------------------------------

constexpr int64_t kSseBudget = 4000;

SseWorkload BuildSseForEquivalence(uint64_t seed,
                                   int executors_per_operator = 4) {
  SseOptions options;
  options.mode = SourceSpec::Mode::kSaturation;
  // Horizon 1 ns: no surges, no popularity drift — stock sampling becomes
  // time-independent, so the wall clock cannot perturb the order stream.
  options.trace.horizon_ns = 1;
  options.trace.num_stocks = 300;
  options.source_executors = 1;  // SampleStock mutates shared model state.
  options.executors_per_operator = executors_per_operator;
  options.shards_per_executor = 4;
  options.shard_state_bytes = 4 << 10;
  SseWorkload workload = BuildSseWorkload(options, seed).value();
  OperatorSpec& orders = workload.topology.mutable_spec(workload.orders);
  orders.source.max_tuples = kSseBudget;
  // Keep the source below the transactor's capacity (2 executors x 0.5 ms
  // mean cost): a blocked sim spout would burn factory-rng draws on retry
  // jitter and desync the order stream from the native run.
  orders.source.gen_overhead_ns = Millis(1);
  for (OperatorId op = 0; op < workload.topology.num_operators(); ++op) {
    OperatorSpec& spec = workload.topology.mutable_spec(op);
    if (!spec.is_source) spec.static_executors = 2;
  }
  return workload;
}

TEST(NativeEquivalenceTest, SsePerShardStateAndCountsMatchSim) {
  SseWorkload sim_workload = BuildSseForEquivalence(/*seed=*/5);
  EngineConfig sim_config = SmallStaticConfig();
  sim_config.num_nodes = 8;  // 12 processing ops x 2 executors = 24 cores.
  Engine sim_engine(sim_workload.topology, sim_config);
  ASSERT_TRUE(sim_engine.Setup().ok());
  sim_engine.Start();
  sim_engine.RunToCompletion();

  SseWorkload native_workload = BuildSseForEquivalence(/*seed=*/5);
  EngineConfig native_config = SmallStaticConfig();
  native_config.num_nodes = 8;
  native_config.backend = exec::BackendKind::kNative;
  native_config.native.workers_per_operator = 3;
  native_config.native.data_path.batch_tuples = 8;
  Engine native_engine(native_workload.topology, native_config);
  ASSERT_TRUE(native_engine.Setup().ok());
  native_engine.Start();
  native_engine.RunToCompletion();

  // The transactor consumed the full order budget on both backends; every
  // downstream operator saw exactly the records the matcher emitted.
  EXPECT_EQ(ProcessedCount(&sim_engine, sim_workload.transactor), kSseBudget);
  EXPECT_EQ(ProcessedCount(&native_engine, native_workload.transactor),
            kSseBudget);
  const int64_t sim_records =
      ProcessedCount(&sim_engine, sim_workload.stats_ops[0]);
  EXPECT_GT(sim_records, 0);
  for (OperatorId op : sim_workload.stats_ops) {
    EXPECT_EQ(ProcessedCount(&sim_engine, op), sim_records);
    EXPECT_EQ(ProcessedCount(&native_engine, op), sim_records);
  }
  for (OperatorId op : sim_workload.event_ops) {
    EXPECT_EQ(ProcessedCount(&sim_engine, op), sim_records);
    EXPECT_EQ(ProcessedCount(&native_engine, op), sim_records);
  }
  EXPECT_EQ(sim_engine.metrics()->sink_count(),
            native_engine.metrics()->sink_count());

  // Identical per-shard typed state on every operator: shard ids are global
  // (partition hashing does not depend on worker counts), so entry counts
  // and user-state bytes must line up shard by shard — for the transactor
  // this fingerprints the order books themselves (user_bytes grows with
  // every price-level change).
  for (OperatorId op = 0; op < sim_workload.topology.num_operators(); ++op) {
    if (sim_workload.topology.spec(op).is_source) continue;
    ShardFingerprint sim_fp, native_fp;
    ForEachStore(&sim_engine, op, [&](const ProcessStateStore& s) {
      AccumulateFingerprint(s, &sim_fp);
    });
    ForEachStore(&native_engine, op, [&](const ProcessStateStore& s) {
      AccumulateFingerprint(s, &native_fp);
    });
    EXPECT_EQ(sim_fp, native_fp) << "operator "
                                 << sim_workload.topology.spec(op).name;
  }
}

// ---------------------------------------------------------------------------
// Formerly-rejected configurations, now first-class on the native backend:
// elastic paradigm, trace-mode sources, concurrent order validation.
// ---------------------------------------------------------------------------

TEST(NativeEquivalenceTest, NativeRunsElasticParadigm) {
  MicroWorkload workload = BuildMicroForEquivalence(/*seed=*/3);
  // Unbounded sources: the moves below must find live workers however fast
  // the host would drain a fixed budget.
  workload.topology.mutable_spec(workload.generator).source.max_tuples = 0;
  EngineConfig config = SmallStaticConfig();
  config.backend = exec::BackendKind::kNative;
  config.paradigm = Paradigm::kElastic;
  config.native.workers_per_operator = 4;
  Engine engine(workload.topology, config);
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();
  exec::NativeRuntime* native = engine.native();
  const OperatorId calc = workload.calculator;
  // Move every shard once while the dataflow runs, then drain.
  engine.RunFor(Micros(200));
  const int shards = native->num_shards(calc);
  for (int s = 0; s < shards; ++s) {
    // +1 so every move actually leaves the interleaved initial owner;
    // in-transition skips are fine.
    (void)native->ReassignShard(calc, s, (s + 1) % 4);
  }
  for (int rounds = 0; native->reassignments_done() == 0; ++rounds) {
    ASSERT_LT(rounds, 50000) << "no move completed";
    engine.RunFor(Micros(200));
  }
  engine.StopSources();
  engine.RunToCompletion();
  const exec::TelemetrySnapshot drained = engine.SampleTelemetry();
  EXPECT_GT(drained.source_emitted, 0);
  EXPECT_EQ(drained.sink_count, drained.source_emitted);
  EXPECT_GT(native->reassignments_done(), 0);
  EXPECT_EQ(native->migrations_in_flight(), 0);
  // Shards move only between live workers: after the drain a move is
  // refused and changes nothing.
  const int owner = native->shard_owner(calc, 0);
  const int64_t done = native->reassignments_done();
  EXPECT_EQ(native->ReassignShard(calc, 0, owner == 0 ? 1 : 0).code(),
            StatusCode::kFailedPrecondition);
  engine.RunFor(Millis(1));
  EXPECT_EQ(native->shard_owner(calc, 0), owner);
  EXPECT_EQ(native->reassignments_done(), done);
  EXPECT_EQ(native->migrations_in_flight(), 0);
}

TEST(NativeEquivalenceTest, NativeRunsTraceModeSources) {
  MicroOptions options;
  options.mode = SourceSpec::Mode::kTrace;
  options.trace_rate_per_sec = 200000.0;
  options.generator_executors = 1;
  options.calculator_executors = 2;
  options.shards_per_executor = 2;
  MicroWorkload workload = BuildMicroWorkload(options, /*seed=*/3).value();
  workload.topology.mutable_spec(workload.generator).source.max_tuples = 500;
  EngineConfig config = SmallStaticConfig();
  config.backend = exec::BackendKind::kNative;
  Engine engine(workload.topology, config);
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();
  engine.RunToCompletion();
  EXPECT_EQ(engine.SampleTelemetry().source_emitted, 500);
  EXPECT_EQ(engine.SampleTelemetry().sink_count, 500);
}

TEST(NativeEquivalenceTest, NativeValidatesKeyOrder) {
  MicroWorkload workload = BuildMicroForEquivalence(/*seed=*/3);
  EngineConfig config = SmallStaticConfig();
  config.backend = exec::BackendKind::kNative;
  config.validate_key_order = true;
  config.native.workers_per_operator = 4;
  config.native.data_path.batch_tuples = 8;
  Engine engine(workload.topology, config);
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();
  engine.RunToCompletion();
  EXPECT_EQ(engine.SampleTelemetry().sink_count, kMicroSources * kMicroBudget);
  EXPECT_EQ(engine.order_violations(), 0);
}

// ---------------------------------------------------------------------------
// Elastic equivalence: shards migrate live between worker threads while the
// dataflow runs; results must still match the simulator bit for bit and be
// invariant across worker counts and migration schedules.
// ---------------------------------------------------------------------------

EngineConfig SmallElasticSimConfig() {
  EngineConfig config;
  config.paradigm = Paradigm::kElastic;
  config.num_nodes = 4;
  config.cores_per_node = 4;
  config.seed = 7;
  config.scheduler.enabled = false;  // Scripted core grants only.
  return config;
}

// Accumulates over every store of a sim elastic operator. All scripted core
// grants stay on the executor's home node, so its backend's home store holds
// all of its shards.
template <typename Fn>
void ForEachElasticSimStore(Engine* engine, OperatorId op, Fn&& fn) {
  for (const auto& ex : engine->elastic_executors(op)) {
    fn(*ex->state_backend()->store(ex->home_node()));
  }
}

// Grants every elastic executor of `op` a second core on its home node (so
// the balancer has somewhere to move shards) and then force-reassigns a
// sprinkling of shards — sim-side migrations through the same
// MigrationEngine the native runtime drives.
void ScriptSimElasticMoves(Engine* engine, OperatorId op) {
  auto execs = engine->elastic_executors(op);
  engine->exec()->After(Millis(2), [engine, execs] {
    for (const auto& ex : execs) {
      const NodeId home = ex->home_node();
      if (engine->ledger()->Acquire(home, ex->id()) >= 0) {
        ASSERT_TRUE(ex->AddCore(home).ok());
      }
    }
  });
  engine->exec()->After(Millis(4), [execs] {
    for (const auto& ex : execs) {
      for (int s = 0; s < ex->num_shards(); s += 3) {
        (void)ex->ProbeReassign(s, ex->home_node());
      }
    }
  });
}

EngineConfig NativeElasticConfig(int workers) {
  EngineConfig config = SmallStaticConfig();
  config.paradigm = Paradigm::kElastic;
  config.backend = exec::BackendKind::kNative;
  config.validate_key_order = true;  // Concurrent order validator on.
  config.native.workers_per_operator = workers;
  config.native.data_path.batch_tuples = 8;
  config.native.data_path.channel_capacity_batches = 8;
  if (workers == 8) {
    // The widest run also exercises the paced chunked pre-copy path: chunks
    // and deltas ride the backend's timer wheel instead of completing
    // synchronously.
    config.native.migration_copy_bytes_per_sec = 64e6;
    config.state.migration.chunk_bytes = 512;
  }
  return config;
}

// Sweeps every shard of `op` to a rotating worker while the dataflow runs.
void ScriptNativeElasticMoves(Engine* engine, OperatorId op, int workers,
                              int rounds) {
  exec::NativeRuntime* native = engine->native();
  const int shards = native->num_shards(op);
  for (int round = 0; round < rounds; ++round) {
    engine->RunFor(Micros(300));
    for (int s = 0; s < shards; ++s) {
      // Shards still in transition (or whose endpoints are draining) skip a
      // round; the sweep is best-effort by design.
      (void)native->ReassignShard(op, s, (s + round) % workers);
    }
  }
}

TEST(NativeEquivalenceTest, MicroElasticCountersMatchSimUnderMigration) {
  const int64_t expected = kMicroSources * kMicroBudget;
  KeyCounts sim_counts;
  {
    MicroWorkload workload = BuildMicroForEquivalence(/*seed=*/17);
    Engine engine(workload.topology, SmallElasticSimConfig());
    ASSERT_TRUE(engine.Setup().ok());
    engine.Start();
    ScriptSimElasticMoves(&engine, workload.calculator);
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics()->sink_count(), expected);
    int64_t sim_moves = 0;
    for (const auto& ex : engine.elastic_executors(workload.calculator)) {
      sim_moves += ex->reassignments_done();
    }
    EXPECT_GT(sim_moves, 0) << "sim run must actually migrate shards";
    ForEachElasticSimStore(&engine, workload.calculator,
                           [&](const ProcessStateStore& s) {
                             AccumulateCounts(s, &sim_counts);
                           });
  }
  for (int workers : {1, 2, 8}) {
    MicroWorkload workload = BuildMicroForEquivalence(/*seed=*/17);
    Engine engine(workload.topology, NativeElasticConfig(workers));
    ASSERT_TRUE(engine.Setup().ok());
    engine.Start();
    ScriptNativeElasticMoves(&engine, workload.calculator, workers,
                             /*rounds=*/6);
    engine.RunToCompletion();
    exec::NativeRuntime* native = engine.native();
    EXPECT_EQ(engine.SampleTelemetry().sink_count, expected)
        << "workers=" << workers;
    EXPECT_EQ(engine.SampleTelemetry().source_emitted, expected);
    EXPECT_EQ(engine.order_violations(), 0) << "workers=" << workers;
    EXPECT_EQ(native->migrations_in_flight(), 0);
    if (workers > 1) {
      EXPECT_GT(native->reassignments_done(), 0) << "workers=" << workers;
      EXPECT_GT(native->labels_routed(), 0);
    }
    KeyCounts native_counts;
    ForEachStore(&engine, workload.calculator,
                 [&](const ProcessStateStore& s) {
                   AccumulateCounts(s, &native_counts);
                 });
    EXPECT_EQ(sim_counts, native_counts) << "workers=" << workers;
  }
}

TEST(NativeEquivalenceTest, PoolResizeKeepsPerKeyResultsBitIdentical) {
  // Run the same workload twice: once with a fixed pool, once growing the
  // pool mid-stream, sweeping shards onto the new workers, then shrinking
  // back down (evacuation over the labeling barrier). Results must be
  // bit-identical — GrowWorkers/ShrinkWorkers are pure placement actions
  // with no semantic footprint.
  const int64_t expected = kMicroSources * kMicroBudget;
  KeyCounts counts[2];
  for (int run = 0; run < 2; ++run) {
    MicroWorkload workload = BuildMicroForEquivalence(/*seed=*/19);
    EngineConfig config = NativeElasticConfig(/*workers=*/3);
    Engine engine(workload.topology, config);
    ASSERT_TRUE(engine.Setup().ok());
    engine.Start();
    exec::NativeRuntime* native = engine.native();
    const OperatorId calc = workload.calculator;
    if (run == 1) {
      engine.RunFor(Micros(300));
      ASSERT_TRUE(engine.native()->GrowWorkers(calc, 2).ok());
      ASSERT_EQ(native->num_workers(calc), 5);
      // Load the grown workers: rotate every shard across the wider pool
      // while the stream runs.
      ScriptNativeElasticMoves(&engine, calc, /*workers=*/5, /*rounds=*/3);
      ASSERT_TRUE(engine.native()->ShrinkWorkers(calc, 2).ok());
      engine.RunFor(Micros(300));
    }
    engine.RunToCompletion();
    EXPECT_EQ(engine.SampleTelemetry().sink_count, expected) << "run=" << run;
    EXPECT_EQ(engine.SampleTelemetry().source_emitted, expected);
    EXPECT_EQ(engine.order_violations(), 0) << "run=" << run;
    EXPECT_EQ(native->migrations_in_flight(), 0);
    if (run == 1) {
      EXPECT_GT(native->reassignments_done(), 0);
      // Retired workers hold no state after the drain.
      const exec::TelemetrySnapshot snap = engine.SampleTelemetry();
      for (const auto& wt : snap.workers) {
        if (!wt.retiring) continue;
        int64_t entries = 0;
        native->worker_store(calc, wt.index)
            ->ForEachShard([&](ShardId, const ShardState& state) {
              entries += static_cast<int64_t>(state.entries.size());
            });
        EXPECT_EQ(entries, 0) << "retired worker " << wt.index
                              << " still holds state";
      }
    }
    ForEachStore(&engine, calc, [&](const ProcessStateStore& s) {
      AccumulateCounts(s, &counts[run]);
    });
  }
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(NativeEquivalenceTest, SseElasticStateMatchesSimUnderMigration) {
  // Two executors per operator keeps the sim elastic run inside the 4x4
  // cluster (each executor pins a core); shard ids — and therefore the
  // fingerprints — depend only on total_shards, which both backends share.
  SseWorkload sim_workload =
      BuildSseForEquivalence(/*seed=*/5, /*executors_per_operator=*/2);
  EngineConfig sim_config = SmallElasticSimConfig();
  sim_config.num_nodes = 8;
  Engine sim_engine(sim_workload.topology, sim_config);
  ASSERT_TRUE(sim_engine.Setup().ok());
  sim_engine.Start();
  ScriptSimElasticMoves(&sim_engine, sim_workload.transactor);
  ScriptSimElasticMoves(&sim_engine, sim_workload.stats_ops[0]);
  sim_engine.RunToCompletion();
  ASSERT_EQ(ProcessedCount(&sim_engine, sim_workload.transactor), kSseBudget);

  for (int workers : {1, 2, 8}) {
    SseWorkload workload =
        BuildSseForEquivalence(/*seed=*/5, /*executors_per_operator=*/2);
    EngineConfig config = NativeElasticConfig(workers);
    config.num_nodes = 8;
    Engine engine(workload.topology, config);
    ASSERT_TRUE(engine.Setup().ok());
    engine.Start();
    exec::NativeRuntime* native = engine.native();
    // Migrate across the whole topology, not just one operator: order
    // matching upstream of the stats fan-out is where a protocol bug would
    // scramble per-stock streams.
    for (int round = 0; round < 4; ++round) {
      engine.RunFor(Micros(500));
      for (OperatorId op = 0; op < workload.topology.num_operators(); ++op) {
        if (workload.topology.spec(op).is_source) continue;
        for (int s = 0; s < native->num_shards(op); ++s) {
          (void)native->ReassignShard(op, s, (s + round) % workers);
        }
      }
    }
    engine.RunToCompletion();
    EXPECT_EQ(ProcessedCount(&engine, workload.transactor), kSseBudget);
    EXPECT_EQ(engine.order_violations(), 0) << "workers=" << workers;
    EXPECT_EQ(native->migrations_in_flight(), 0);
    if (workers > 1) EXPECT_GT(native->reassignments_done(), 0);
    EXPECT_EQ(sim_engine.metrics()->sink_count(),
              engine.metrics()->sink_count());
    for (OperatorId op = 0; op < workload.topology.num_operators(); ++op) {
      if (workload.topology.spec(op).is_source) continue;
      ShardFingerprint sim_fp, native_fp;
      ForEachElasticSimStore(&sim_engine, op,
                             [&](const ProcessStateStore& s) {
                               AccumulateFingerprint(s, &sim_fp);
                             });
      ForEachStore(&engine, op, [&](const ProcessStateStore& s) {
        AccumulateFingerprint(s, &native_fp);
      });
      EXPECT_EQ(sim_fp, native_fp)
          << "workers=" << workers << " operator "
          << workload.topology.spec(op).name;
    }
  }
}

}  // namespace
}  // namespace elasticutor
