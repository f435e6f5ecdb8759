// Migration-under-load soak for the native elastic runtime: a seeded
// randomized schedule of live shard reassignments (>= 200 completed moves)
// against unbounded saturation sources, with the concurrent order validator
// on and the paced chunked pre-copy path engaged. The invariants after the
// drain are absolute — every generated tuple reaches the sink exactly once
// and no (producer, key) stream is ever reordered — so the test doubles as
// the TSan workout for the whole control plane (CI runs it in the
// Debug+TSan job; any data race in the labeling barrier, the routing flip
// or the hold/replay path shows up here first).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <vector>

#include "elasticutor/elasticutor.h"

namespace elasticutor {
namespace {

MicroWorkload BuildStressWorkload(uint64_t seed) {
  MicroOptions options;
  options.num_keys = 512;
  options.zipf_skew = 0.6;
  options.tuple_bytes = 64;
  options.calc_cost_ns = Micros(2);
  options.shard_state_bytes = 2 << 10;
  options.generator_executors = 2;
  options.calculator_executors = 4;
  options.shards_per_executor = 4;  // 16 shards total.
  options.mode = SourceSpec::Mode::kSaturation;
  options.gen_overhead_ns = Micros(20);
  MicroWorkload workload = BuildMicroWorkload(options, seed).value();
  // Unbounded: the soak decides when it has seen enough migrations and
  // stops the sources itself.
  workload.topology.mutable_spec(workload.generator).source.max_tuples = 0;
  return workload;
}

EngineConfig StressConfig() {
  EngineConfig config;
  config.paradigm = Paradigm::kElastic;
  config.backend = exec::BackendKind::kNative;
  config.num_nodes = 4;
  config.cores_per_node = 4;
  config.seed = 7;
  config.validate_key_order = true;
  config.native.workers_per_operator = 4;
  // Tiny batches and rings: maximize cross-thread handoffs and
  // back-pressure stalls per tuple — the interleavings a race hides in.
  config.native.data_path.batch_tuples = 4;
  config.native.data_path.channel_capacity_batches = 4;
  // Paced pre-copy: chunks and deltas ride the timer wheel, so routing
  // flips land while the shard is mid-copy and the DirtyTracker is hot.
  config.native.migration_copy_bytes_per_sec = 64e6;
  config.state.migration.chunk_bytes = 512;
  return config;
}

TEST(NativeElasticStressTest, RandomizedMigrationSoakConservesEveryTuple) {
  constexpr int64_t kTargetMoves = 200;
  MicroWorkload workload = BuildStressWorkload(/*seed=*/29);
  Engine engine(workload.topology, StressConfig());
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();

  exec::NativeRuntime* native = engine.native();
  const OperatorId calc = workload.calculator;
  const int shards = native->num_shards(calc);
  const int workers = native->num_workers(calc);
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> pick_shard(0, shards - 1);
  std::uniform_int_distribution<int> pick_worker(0, workers - 1);

  // Randomized schedule: every ~200 us of wall-clock dataflow, post four
  // random moves. Collisions with in-flight moves are rejected and simply
  // retried by a later round — the soak counts completions, not requests.
  int64_t rejected = 0;
  int rounds = 0;
  while (native->reassignments_done() < kTargetMoves) {
    ASSERT_LT(rounds++, 4000) << "soak stalled: "
                              << native->reassignments_done()
                              << " moves after " << rounds << " rounds";
    engine.RunFor(Micros(200));
    for (int i = 0; i < 4; ++i) {
      if (!native->ReassignShard(calc, pick_shard(rng), pick_worker(rng))
               .ok()) {
        ++rejected;
      }
    }
  }
  engine.StopSources();
  engine.RunToCompletion();

  // Conservation: every generated tuple was processed and hit the sink
  // exactly once — nothing lost in a drain, nothing replayed twice.
  const exec::TelemetrySnapshot drained = engine.SampleTelemetry();
  const int64_t emitted = drained.source_emitted;
  EXPECT_GT(emitted, 0);
  EXPECT_EQ(drained.total_processed, emitted);
  EXPECT_EQ(drained.sink_count, emitted);
  EXPECT_EQ(engine.metrics()->sink_count(), emitted);

  // Ordering: the concurrent validator saw every (producer, key) stream
  // arrive in emission order across >= 200 mid-stream reassignments.
  EXPECT_EQ(engine.order_violations(), 0);

  // Protocol accounting: everything begun was finished.
  EXPECT_GE(native->reassignments_done(), kTargetMoves);
  EXPECT_EQ(native->migrations_in_flight(), 0);
  EXPECT_GT(native->labels_routed(), 0);
  const auto pauses = native->migration_pauses();
  EXPECT_EQ(static_cast<int64_t>(pauses.size()),
            native->reassignments_done());
  for (SimDuration pause : pauses) EXPECT_GE(pause, 0);
  // The schedule must have exercised the contended path too: with 4 moves
  // posted per round against 16 shards, same-shard collisions are certain.
  EXPECT_GT(rejected, 0);
}

TEST(NativeElasticStressTest, PacedRotationNeverHoldsOnTheOldOwner) {
  // Rotation at protocol capacity under paced copy: until 1000 moves have
  // completed, the driver moves every shard to the next worker the moment
  // its previous move flipped. With a copy rate set, the flip
  // (BeginLabeling) runs on the driver thread when the last pre-copy chunk
  // lands, while the old owner is still draining the shard's pre-flip
  // backlog. The old owner may see `held` raised before it sees the new
  // `owner`; its hold test must still never take it for the destination —
  // a pre-flip tuple parked in its own hold buffer is replayed out of order
  // when the shard comes back, or lost when it does not.
  constexpr int kWorkers = 3;
  MicroOptions options;
  options.num_keys = 4096;
  options.tuple_bytes = 64;
  options.shard_state_bytes = 8 << 10;
  options.generator_executors = 1;
  options.calculator_executors = kWorkers;
  options.shards_per_executor = 16;
  options.mode = SourceSpec::Mode::kSaturation;
  MicroWorkload workload = BuildMicroWorkload(options, /*seed=*/53).value();
  workload.topology.mutable_spec(workload.generator).source.max_tuples = 0;
  EngineConfig config;
  config.paradigm = Paradigm::kElastic;
  config.backend = exec::BackendKind::kNative;
  config.num_nodes = 4;
  config.cores_per_node = 4;
  config.seed = 11;
  config.validate_key_order = true;
  config.native.workers_per_operator = kWorkers;
  config.native.migration_copy_bytes_per_sec = 256e6;  // 32 us per shard.
  Engine engine(workload.topology, config);
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();

  exec::NativeRuntime* native = engine.native();
  const OperatorId calc = workload.calculator;
  const int shards = native->num_shards(calc);
  std::vector<int> target(shards, -1);  // Destination of the last post.
  // Counted in moves, not wall time, so a slow host (TSan, a loaded
  // runner) runs longer instead of missing the floor. The guard only
  // catches a hang.
  constexpr int64_t kTargetMoves = 1000;
  const auto hang = std::chrono::steady_clock::now() + std::chrono::minutes(5);
  while (native->reassignments_done() < kTargetMoves) {
    ASSERT_LT(std::chrono::steady_clock::now(), hang)
        << "rotation stalled after " << native->reassignments_done()
        << " moves";
    engine.RunFor(Micros(500));
    for (ShardId s = 0; s < shards; ++s) {
      const int owner = native->shard_owner(calc, s);
      if (target[s] >= 0 && owner != target[s]) continue;  // Not flipped.
      const int to = (owner + 1) % kWorkers;
      // Rejected while the previous move is still installing; retried on
      // the next round.
      if (native->ReassignShard(calc, s, to).ok()) target[s] = to;
    }
  }
  engine.StopSources();
  engine.RunToCompletion();

  const exec::TelemetrySnapshot drained = engine.SampleTelemetry();
  const int64_t emitted = drained.source_emitted;
  EXPECT_GT(emitted, 0);
  EXPECT_EQ(drained.sink_count, emitted);
  EXPECT_EQ(engine.order_violations(), 0);
  EXPECT_EQ(native->migrations_in_flight(), 0);
  EXPECT_GE(native->reassignments_done(), kTargetMoves);
}

TEST(NativeElasticStressTest, WorkerScalingSoakConservesEveryTuple) {
  // The resource-control-plane soak: randomized GrowWorkers/ShrinkWorkers
  // mid-stream, interleaved with randomized shard reassignments, against
  // unbounded saturation sources with the order validator on. Every grown
  // worker becomes a live routing destination while producers are mid-batch;
  // every shrunk worker must evacuate its shards over the labeling barrier
  // and exit only once nothing references it. Conservation and ordering
  // stay absolute throughout (the TSan job runs this too).
  constexpr int64_t kTargetMoves = 150;
  constexpr int kTargetScaleOps = 6;
  MicroWorkload workload = BuildStressWorkload(/*seed=*/41);
  EngineConfig config = StressConfig();
  config.native.max_workers_per_operator = 8;
  Engine engine(workload.topology, config);
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();

  exec::NativeRuntime* native = engine.native();
  const OperatorId calc = workload.calculator;
  const int shards = native->num_shards(calc);
  std::mt19937 rng(4321);
  std::uniform_int_distribution<int> pick_shard(0, shards - 1);

  int64_t rejected = 0;
  int scale_ops = 0;
  int rounds = 0;
  int actives = 4;  // Mirrors grow/shrink successes below.
  bool grow_next = true;
  while (native->reassignments_done() < kTargetMoves ||
         scale_ops < kTargetScaleOps) {
    ASSERT_LT(rounds++, 4000)
        << "soak stalled: " << native->reassignments_done() << " moves, "
        << scale_ops << " scale ops after " << rounds << " rounds";
    engine.RunFor(Micros(200));
    // Moves target the live slot range, retiring victims included — those
    // are rejected, which is exactly the contract under test.
    std::uniform_int_distribution<int> pick_worker(
        0, native->num_workers(calc) - 1);
    for (int i = 0; i < 3; ++i) {
      if (!native->ReassignShard(calc, pick_shard(rng), pick_worker(rng))
               .ok()) {
        ++rejected;
      }
    }
    if (rounds % 5 == 0) {
      // Alternate grow/shrink while respecting the pool's slot budget:
      // slots are single-use (a retired slot is never re-armed), so grows
      // are bounded by max_workers_per_operator. Never shrink below 3
      // actives — reassignments need live non-retiring destinations to
      // keep completing.
      const bool can_grow = native->num_workers(calc) < 8;
      const bool can_shrink = actives > 3;
      const bool grow = grow_next ? can_grow : (can_shrink ? false : can_grow);
      if (grow) {
        if (native->GrowWorkers(calc, 1).ok()) {
          ++scale_ops;
          ++actives;
        }
      } else if (can_shrink) {
        if (native->ShrinkWorkers(calc, 1).ok()) {
          ++scale_ops;
          --actives;
        }
      }
      grow_next = !grow_next;
    }
  }
  engine.StopSources();
  engine.RunToCompletion();

  const exec::TelemetrySnapshot drained = engine.SampleTelemetry();
  const int64_t emitted = drained.source_emitted;
  EXPECT_GT(emitted, 0);
  EXPECT_EQ(drained.total_processed, emitted);
  EXPECT_EQ(drained.sink_count, emitted);
  EXPECT_EQ(engine.order_violations(), 0);
  EXPECT_GE(scale_ops, kTargetScaleOps);
  EXPECT_GT(native->num_workers(calc), 4) << "no growth ever landed";
  EXPECT_EQ(native->migrations_in_flight(), 0);
  EXPECT_GT(rejected, 0);

  // The unified snapshot agrees with the joined threads' exact counters
  // (post-WaitDrained exactness), covers every slot ever grown, and shows
  // every retired worker fully evacuated.
  const exec::TelemetrySnapshot snap = engine.SampleTelemetry();
  EXPECT_EQ(snap.total_processed, emitted);
  EXPECT_EQ(snap.sink_count, emitted);
  EXPECT_EQ(snap.source_emitted, emitted);
  EXPECT_EQ(snap.reassignments_done, native->reassignments_done());
  EXPECT_EQ(snap.migrations_in_flight, 0);
  EXPECT_GT(snap.total_busy_ns, 0);
  int64_t shard_processed = 0;
  for (const auto& st : snap.shards) {
    EXPECT_GE(st.owner, 0);
    shard_processed += st.processed;
    EXPECT_GE(st.busy_ns, 0);
  }
  EXPECT_EQ(shard_processed, emitted);  // calc is the only worker operator.
  int grown_seen = 0;
  for (const auto& wt : snap.workers) {
    EXPECT_TRUE(wt.exited);
    if (wt.index >= 4) ++grown_seen;
    if (wt.retiring) {
      // Evacuation-before-exit: a retired worker owns nothing.
      for (const auto& st : snap.shards) {
        EXPECT_FALSE(st.op == wt.op && st.owner == wt.index)
            << "retired worker " << wt.index << " still owns shard "
            << st.shard;
      }
    }
  }
  EXPECT_GT(grown_seen, 0);
}

TEST(NativeElasticStressTest, BalanceTickMovesSkewedShards) {
  // The driver's balance tick on its own (BalanceTick -> UpdateWorkerSpeeds
  // -> PlanMoves -> ReassignShard): about 90% of the tuples go to keys on
  // shards worker 0 owns, and the test never calls ReassignShard itself,
  // so every completed move was planned from measured wall-busy load.
  constexpr int kWorkers = 3;
  constexpr int kHotShards = 4;
  MicroWorkload workload = BuildStressWorkload(/*seed=*/59);
  auto hot = std::make_shared<std::vector<uint64_t>>();
  workload.topology.mutable_spec(workload.generator).source.factory =
      [hot](Rng* rng, SimTime) {
        const auto n = static_cast<uint32_t>(hot->size());
        Tuple t;
        t.key = rng->NextBounded(10) < 9 ? (*hot)[rng->NextBounded(n)]
                                         : rng->NextBounded(512);
        t.size_bytes = 64;
        return t;
      };
  EngineConfig config = StressConfig();
  config.native.workers_per_operator = kWorkers;
  config.native.balance.period_ns = Millis(10);
  Engine engine(workload.topology, config);
  ASSERT_TRUE(engine.Setup().ok());

  // Hot keys on distinct shards that worker 0 routes at t=0 (filled before
  // Start, so the source threads only ever read the vector).
  exec::NativeRuntime* native = engine.native();
  const OperatorId calc = workload.calculator;
  std::vector<ShardId> used;
  for (uint64_t key = 0; static_cast<int>(hot->size()) < kHotShards; ++key) {
    ASSERT_LT(key, 1u << 20);
    const ShardId s = native->shard_of_key(calc, key);
    if (native->worker_of_shard(calc, s) != 0) continue;
    if (std::find(used.begin(), used.end(), s) != used.end()) continue;
    used.push_back(s);
    hot->push_back(key);
  }
  engine.Start();

  const auto hang = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (native->reassignments_done() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), hang)
        << "the balance tick moved no shard";
    engine.RunFor(Millis(20));
  }
  engine.StopSources();
  engine.RunToCompletion();

  const exec::TelemetrySnapshot drained = engine.SampleTelemetry();
  EXPECT_GT(drained.source_emitted, 0);
  EXPECT_EQ(drained.sink_count, drained.source_emitted);
  EXPECT_EQ(engine.order_violations(), 0);
  EXPECT_EQ(native->migrations_in_flight(), 0);
  EXPECT_GE(native->reassignments_done(), 1);
}

TEST(NativeElasticStressTest, MovesAfterDrainAreRejected) {
  // Shards move only between live workers. Once the dataflow drained every
  // worker has departed, so every move is refused up front and changes
  // nothing: no owner, store, counter or in-flight move.
  MicroWorkload workload = BuildStressWorkload(/*seed=*/31);
  workload.topology.mutable_spec(workload.generator).source.max_tuples = 500;
  Engine engine(workload.topology, StressConfig());
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();
  engine.RunToCompletion();

  exec::NativeRuntime* native = engine.native();
  const OperatorId calc = workload.calculator;
  const int shards = native->num_shards(calc);
  const int workers = native->num_workers(calc);
  auto shard_sets = [&] {
    std::vector<std::vector<ShardId>> sets(workers);
    for (int w = 0; w < workers; ++w) {
      native->worker_store(calc, w)->ForEachShard(
          [&](ShardId shard, const ShardState&) { sets[w].push_back(shard); });
      std::sort(sets[w].begin(), sets[w].end());
    }
    return sets;
  };
  std::vector<int> owners(shards);
  for (int s = 0; s < shards; ++s) owners[s] = native->shard_owner(calc, s);
  const std::vector<std::vector<ShardId>> stores = shard_sets();
  const int64_t done = native->reassignments_done();
  ASSERT_EQ(native->migrations_in_flight(), 0);

  for (int s = 0; s < shards; ++s) {
    const Status st =
        native->ReassignShard(calc, s, (owners[s] + 1) % workers);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << "shard " << s;
  }
  engine.RunFor(Millis(1));  // Any timer a move had armed would fire here.

  for (int s = 0; s < shards; ++s) {
    EXPECT_EQ(native->shard_owner(calc, s), owners[s]) << "shard " << s;
  }
  EXPECT_EQ(shard_sets(), stores);
  EXPECT_EQ(native->reassignments_done(), done);
  EXPECT_EQ(native->migrations_in_flight(), 0);
}

TEST(NativeElasticStressTest, WorkerScalingErrorPaths) {
  // Unbounded sources (run until StopSources): the producers must still be
  // open when the shrink below runs, however fast the host drains them.
  MicroWorkload workload = BuildStressWorkload(/*seed=*/43);
  EngineConfig config = StressConfig();
  config.native.max_workers_per_operator = 5;  // 4 initial + 1 spare slot.
  Engine engine(workload.topology, config);
  ASSERT_TRUE(engine.Setup().ok());
  exec::NativeRuntime* native = engine.native();
  ASSERT_NE(native, nullptr);
  const OperatorId calc = workload.calculator;

  // Before Start: no threads to grow into or retire.
  EXPECT_FALSE(native->GrowWorkers(calc, 1).ok());
  EXPECT_FALSE(native->ShrinkWorkers(calc, 1).ok());
  engine.Start();

  // Bad arguments.
  EXPECT_FALSE(native->GrowWorkers(workload.generator, 1).ok());  // A source.
  EXPECT_FALSE(native->GrowWorkers(calc, 0).ok());
  EXPECT_FALSE(native->ShrinkWorkers(calc, -1).ok());
  EXPECT_FALSE(native->GrowWorkers(-1, 1).ok());

  // Slot reservation is a hard ceiling: one spare slot, so +2 is rejected
  // whole, +1 lands, then the pool is full.
  EXPECT_FALSE(native->GrowWorkers(calc, 2).ok());
  ASSERT_TRUE(native->GrowWorkers(calc, 1).ok());
  EXPECT_EQ(native->num_workers(calc), 5);
  EXPECT_FALSE(native->GrowWorkers(calc, 1).ok());

  // The pool never shrinks to zero active workers.
  EXPECT_FALSE(native->ShrinkWorkers(calc, 5).ok());
  ASSERT_TRUE(native->ShrinkWorkers(calc, 4).ok());
  EXPECT_FALSE(native->ShrinkWorkers(calc, 1).ok());  // 1 active left.

  // Stop only once tuples have reached the sink, so the conservation check
  // below covers data that crossed the evacuations.
  for (int rounds = 0; engine.SampleTelemetry().sink_count == 0; ++rounds) {
    ASSERT_LT(rounds, 50000) << "no tuple reached the sink";
    engine.RunFor(Micros(200));
  }
  engine.StopSources();
  engine.RunToCompletion();
  const int64_t emitted = engine.SampleTelemetry().source_emitted;
  EXPECT_GT(emitted, 0);
  EXPECT_EQ(engine.SampleTelemetry().sink_count, emitted);
  EXPECT_EQ(engine.order_violations(), 0);
  // Everything evacuated onto the lone survivor.
  const exec::TelemetrySnapshot snap = engine.SampleTelemetry();
  int actives = 0;
  for (const auto& wt : snap.workers) {
    if (!wt.retiring) ++actives;
  }
  EXPECT_EQ(actives, 1);
  for (const auto& st : snap.shards) {
    EXPECT_FALSE(snap.workers.at(st.owner).retiring)
        << "shard " << st.shard << " stranded on a retired worker";
  }

  // After the drain every producer is closed; growth has nothing to route.
  EXPECT_FALSE(native->GrowWorkers(calc, 1).ok());

  // Static paradigm: the pool surface exists but refuses (no routing table
  // to add destinations to).
  MicroWorkload static_wl = BuildStressWorkload(/*seed=*/47);
  static_wl.topology.mutable_spec(static_wl.generator).source.max_tuples = 50;
  EngineConfig static_config = StressConfig();
  static_config.paradigm = Paradigm::kStatic;
  Engine static_engine(static_wl.topology, static_config);
  ASSERT_TRUE(static_engine.Setup().ok());
  static_engine.Start();
  EXPECT_FALSE(
      static_engine.native()->GrowWorkers(static_wl.calculator, 1).ok());
  EXPECT_FALSE(
      static_engine.native()->ShrinkWorkers(static_wl.calculator, 1).ok());
  static_engine.RunToCompletion();
}

TEST(NativeElasticStressTest, RejectsOutOfRangeAndInTransitionMoves) {
  MicroWorkload workload = BuildStressWorkload(/*seed=*/37);
  workload.topology.mutable_spec(workload.generator).source.max_tuples = 200;
  Engine engine(workload.topology, StressConfig());
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();
  exec::NativeRuntime* native = engine.native();
  const OperatorId calc = workload.calculator;
  // Source operators have no shards to move; bad indices are caught before
  // anything is posted.
  EXPECT_FALSE(native->ReassignShard(workload.generator, 0, 0).ok());
  EXPECT_FALSE(native->ReassignShard(calc, -1, 0).ok());
  EXPECT_FALSE(native->ReassignShard(calc, native->num_shards(calc), 0).ok());
  EXPECT_FALSE(native->ReassignShard(calc, 0, -1).ok());
  EXPECT_FALSE(
      native->ReassignShard(calc, 0, native->num_workers(calc)).ok());
  // Same destination: a no-op success, not a posted move.
  const int owner = native->shard_owner(calc, 0);
  EXPECT_TRUE(native->ReassignShard(calc, 0, owner).ok());
  EXPECT_EQ(native->shard_owner(calc, 0), owner);
  engine.RunToCompletion();
  EXPECT_EQ(native->migrations_in_flight(), 0);
  EXPECT_EQ(engine.order_violations(), 0);
}

}  // namespace
}  // namespace elasticutor
