// Tests for the engine substrate: topology validation, partitioning,
// metrics, spouts and the static executor data path.
#include <gtest/gtest.h>

#include "elasticutor/elasticutor.h"

namespace elasticutor {
namespace {

OperatorSpec SimpleSource(int executors = 2) {
  OperatorSpec spec;
  spec.name = "src";
  spec.is_source = true;
  spec.num_executors = executors;
  spec.shards_per_executor = 1;
  spec.source.factory = [](Rng* rng, SimTime) {
    Tuple t;
    t.key = rng->NextBounded(64);
    t.size_bytes = 128;
    return t;
  };
  return spec;
}

TEST(TopologyTest, BuildValidatesSources) {
  TopologyBuilder b;
  OperatorSpec bad;
  bad.name = "no-factory";
  bad.is_source = true;
  b.AddOperator(std::move(bad));
  EXPECT_FALSE(b.Build().ok());
}

TEST(TopologyTest, RejectsCycles) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator(SimpleSource());
  OperatorSpec w;
  w.name = "w";
  OperatorId x = b.AddOperator(w);
  w.name = "v";
  OperatorId y = b.AddOperator(w);
  ASSERT_TRUE(b.Connect(a, x).ok());
  ASSERT_TRUE(b.Connect(x, y).ok());
  ASSERT_TRUE(b.Connect(y, x).ok());
  EXPECT_FALSE(b.Build().ok());
}

TEST(TopologyTest, RejectsUnreachableOperator) {
  TopologyBuilder b;
  b.AddOperator(SimpleSource());
  OperatorSpec w;
  w.name = "island";
  b.AddOperator(w);
  EXPECT_FALSE(b.Build().ok());
}

TEST(TopologyTest, RejectsDuplicateEdgeAndSelfLoop) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator(SimpleSource());
  OperatorSpec w;
  w.name = "w";
  OperatorId x = b.AddOperator(w);
  ASSERT_TRUE(b.Connect(a, x).ok());
  EXPECT_FALSE(b.Connect(a, x).ok());
  EXPECT_FALSE(b.Connect(x, x).ok());
}

TEST(TopologyTest, TopoOrderSourcesFirst) {
  TopologyBuilder b;
  OperatorSpec w;
  w.name = "w";
  OperatorId x = b.AddOperator(w);  // Added before the source on purpose.
  OperatorId a = b.AddOperator(SimpleSource());
  ASSERT_TRUE(b.Connect(a, x).ok());
  Topology t = std::move(b.Build()).value();
  EXPECT_EQ(t.topo_order().front(), a);
  EXPECT_TRUE(t.is_sink(x));
  EXPECT_FALSE(t.is_sink(a));
}

TEST(PartitionTest, ShardOfIsStableAndInRange) {
  OperatorPartition p(64, 8, /*salt=*/3);
  for (uint64_t key = 0; key < 1000; ++key) {
    ShardId s = p.ShardOf(key);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 64);
    EXPECT_EQ(s, p.ShardOf(key));
  }
}

TEST(PartitionTest, BlockedMapGroupsContiguously) {
  OperatorPartition p(64, 8, 0);
  p.SetBlockedMap(8);
  EXPECT_EQ(p.ExecutorOfShard(0), 0);
  EXPECT_EQ(p.ExecutorOfShard(7), 0);
  EXPECT_EQ(p.ExecutorOfShard(8), 1);
  EXPECT_EQ(p.ExecutorOfShard(63), 7);
}

TEST(PartitionTest, SetMapValidates) {
  OperatorPartition p(8, 2, 0);
  EXPECT_FALSE(p.SetMap({0, 1}, 2).ok());            // Wrong size.
  EXPECT_FALSE(p.SetMap({0, 1, 2, 0, 1, 0, 1, 0}, 2).ok());  // Bad index.
  uint64_t v = p.version();
  EXPECT_TRUE(p.SetMap({0, 1, 0, 1, 1, 1, 0, 0}, 2).ok());
  EXPECT_GT(p.version(), v);
}

TEST(PartitionTest, ShardsOfInvertsMap) {
  OperatorPartition p(16, 4, 0);
  auto shards = p.ShardsOf(2);
  for (ShardId s : shards) EXPECT_EQ(p.ExecutorOfShard(s), 2);
  size_t total = 0;
  for (int e = 0; e < 4; ++e) total += p.ShardsOf(e).size();
  EXPECT_EQ(total, 16u);
}

TEST(OrderValidatorTest, DetectsReordering) {
  OrderValidator v;
  uint64_t s1 = v.OnArrive(0, 42);
  uint64_t s2 = v.OnArrive(0, 42);
  v.OnProcess(0, 42, s2);  // Out of order.
  v.OnProcess(0, 42, s1);
  EXPECT_GT(v.violations(), 0);
}

TEST(OrderValidatorTest, AcceptsInOrderPerKey) {
  OrderValidator v;
  for (uint64_t key = 0; key < 4; ++key) {
    for (int i = 0; i < 10; ++i) {
      v.OnProcess(1, key, v.OnArrive(1, key));
    }
  }
  EXPECT_EQ(v.violations(), 0);
}

class MicroEngineTest : public ::testing::TestWithParam<Paradigm> {};

TEST_P(MicroEngineTest, ProcessesTuplesEndToEnd) {
  MicroOptions options;
  options.generator_executors = 4;
  options.calculator_executors = 4;
  options.shards_per_executor = 16;
  auto workload = BuildMicroWorkload(options, 1);
  ASSERT_TRUE(workload.ok());
  EngineConfig config;
  config.paradigm = GetParam();
  config.num_nodes = 4;
  config.cores_per_node = 4;
  Engine engine(workload->topology, config);
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();
  engine.RunFor(Seconds(3));
  EXPECT_GT(engine.metrics()->sink_count(), 1000);
  EXPECT_GT(engine.LatencyHistogram().mean(), 0.0);
}

TEST_P(MicroEngineTest, DeterministicAcrossRuns) {
  auto run = [](Paradigm paradigm) {
    MicroOptions options;
    options.generator_executors = 2;
    options.calculator_executors = 2;
    options.shards_per_executor = 8;
    auto workload = BuildMicroWorkload(options, 99);
    EngineConfig config;
    config.paradigm = paradigm;
    config.num_nodes = 2;
    config.cores_per_node = 4;
    Engine engine(workload->topology, config);
    ELASTICUTOR_CHECK(engine.Setup().ok());
    engine.Start();
    engine.RunFor(Seconds(2));
    return engine.metrics()->sink_count();
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllParadigms, MicroEngineTest,
                         ::testing::Values(Paradigm::kStatic,
                                           Paradigm::kResourceCentric,
                                           Paradigm::kElastic));

TEST(EngineTest, SimBackendServesTelemetryAndHasNoWorkerPool) {
  // The resource-control plane is backend-independent on the measurement
  // side only: the sim adapter fills WorkerTelemetry from ExecutorMetrics,
  // while actuation (worker_pool) is native-only — simulated scaling is
  // AddCore/RemoveCore on the elastic executors.
  MicroOptions options;
  options.generator_executors = 2;
  options.calculator_executors = 4;
  options.shards_per_executor = 4;
  auto workload = BuildMicroWorkload(options, 3);
  EngineConfig config;
  config.paradigm = Paradigm::kElastic;
  config.num_nodes = 4;
  config.cores_per_node = 4;
  Engine engine(workload->topology, config);
  ASSERT_TRUE(engine.Setup().ok());
  EXPECT_EQ(engine.worker_pool(), nullptr);
  engine.Start();
  engine.RunFor(Seconds(2));

  const exec::TelemetrySnapshot snap = engine.SampleTelemetry();
  EXPECT_EQ(snap.sampled_at, engine.exec()->now());
  ASSERT_EQ(snap.workers.size(), 4u);
  ASSERT_EQ(snap.sources.size(), 2u);
  EXPECT_GT(snap.source_emitted, 0);
  EXPECT_GT(snap.total_processed, 0);
  EXPECT_GT(snap.total_busy_ns, 0);
  EXPECT_EQ(snap.sink_count, engine.metrics()->sink_count());
  int64_t worker_processed = 0;
  for (const auto& wt : snap.workers) {
    EXPECT_EQ(wt.op, workload->calculator);
    EXPECT_FALSE(wt.retiring);
    EXPECT_GT(wt.speed, 0.0);  // TaskSpeedOn: 1.0 nominal, always > 0.
    worker_processed += wt.processed;
  }
  EXPECT_EQ(worker_processed, snap.total_processed);
  EXPECT_TRUE(snap.shards.empty());  // Sim shard accounting is per-executor.
}

TEST(EngineTest, StaticProvisioningUsesAllCores) {
  MicroOptions options;
  auto workload = BuildMicroWorkload(options, 1);
  EngineConfig config;
  config.paradigm = Paradigm::kStatic;
  config.num_nodes = 4;
  config.cores_per_node = 4;
  Engine engine(workload->topology, config);
  ASSERT_TRUE(engine.Setup().ok());
  // All 16 cores held by calculator executors (the only processing op).
  EXPECT_EQ(engine.ledger()->TotalFree(), 0);
  EXPECT_EQ(engine.runtime()->executors(workload->calculator).size(), 16u);
}

TEST(EngineTest, TraceModeRespectsOfferedRate) {
  MicroOptions options;
  options.mode = SourceSpec::Mode::kTrace;
  options.trace_rate_per_sec = 5000.0;
  options.generator_executors = 4;
  options.calculator_executors = 4;
  options.shards_per_executor = 16;
  auto workload = BuildMicroWorkload(options, 5);
  EngineConfig config;
  config.paradigm = Paradigm::kElastic;
  config.num_nodes = 4;
  config.cores_per_node = 4;
  Engine engine(workload->topology, config);
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();
  engine.RunFor(Seconds(5));
  double rate = engine.metrics()->sink_count() / 5.0;
  EXPECT_NEAR(rate, 5000.0, 500.0);  // Poisson noise margin.
}

TEST(EngineTest, StopSourcesDrainsSystem) {
  MicroOptions options;
  options.generator_executors = 2;
  options.calculator_executors = 2;
  options.shards_per_executor = 8;
  auto workload = BuildMicroWorkload(options, 2);
  EngineConfig config;
  config.paradigm = Paradigm::kElastic;
  config.num_nodes = 2;
  config.cores_per_node = 4;
  Engine engine(workload->topology, config);
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();
  engine.RunFor(Seconds(1));
  engine.StopSources();
  engine.RunFor(Seconds(2));
  int64_t after_drain = engine.metrics()->sink_count();
  engine.RunFor(Seconds(1));
  EXPECT_EQ(engine.metrics()->sink_count(), after_drain);  // Fully drained.
  for (OperatorId op = 0; op < engine.topology().num_operators(); ++op) {
    EXPECT_EQ(engine.runtime()->inflight(op), 0) << "op " << op;
  }
}

}  // namespace
}  // namespace elasticutor
