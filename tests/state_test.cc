// Unit tests for the state layer: the per-process store + StateAccessor,
// the pluggable StateBackend implementations, and the MigrationEngine
// (chunk/byte accounting, dirty-delta tracking under concurrent writes,
// sync-blob vs chunked-live semantics).
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <type_traits>

#include "common/random.h"
#include "net/network.h"
#include "exec/sim_backend.h"
#include "state/migration_engine.h"
#include "state/state_backend.h"
#include "state/state_store.h"

namespace elasticutor {
namespace {

// Shard blobs move, never copy: an accidental deep copy would double the
// state a migration appears to ship.
static_assert(!std::is_copy_constructible_v<ShardState>);
static_assert(!std::is_copy_assignable_v<ShardState>);
static_assert(std::is_move_constructible_v<ShardState>);
static_assert(std::is_move_assignable_v<ShardState>);

TEST(StateStoreTest, CreateAndAccount) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(1, 32768).ok());
  EXPECT_TRUE(store.HasShard(1));
  EXPECT_EQ(store.ShardBytes(1), 32768);
  EXPECT_EQ(store.TotalBytes(), 32768);
  EXPECT_EQ(store.num_shards(), 1u);
}

TEST(StateStoreTest, DuplicateCreateFails) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(1, 10).ok());
  EXPECT_EQ(store.CreateShard(1, 10).code(), StatusCode::kAlreadyExists);
}

TEST(StateAccessorTest, PerKeyIsolation) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(0, 0).ok());
  {
    StateAccessor a(&store, 0, 1);
    *a.GetOrCreate<int64_t>() = 10;
  }
  {
    StateAccessor b(&store, 0, 2);
    EXPECT_EQ(*b.GetOrCreate<int64_t>(), 0);  // Fresh state for key 2.
  }
  {
    StateAccessor a(&store, 0, 1);
    EXPECT_EQ(*a.GetOrCreate<int64_t>(), 10);
  }
}

TEST(StateAccessorTest, UserBytesGrowWithEntries) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(0, 0).ok());
  int64_t before = store.ShardBytes(0);
  for (uint64_t k = 0; k < 10; ++k) {
    StateAccessor a(&store, 0, k);
    a.GetOrCreate<int64_t>();
  }
  EXPECT_GT(store.ShardBytes(0), before);
  // Re-access does not double count.
  int64_t after = store.ShardBytes(0);
  for (uint64_t k = 0; k < 10; ++k) {
    StateAccessor a(&store, 0, k);
    a.GetOrCreate<int64_t>();
  }
  EXPECT_EQ(store.ShardBytes(0), after);
}

TEST(StateAccessorTest, AddBytesAdjustsFootprint) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(0, 0).ok());
  StateAccessor a(&store, 0, 5);
  a.GetOrCreate<int64_t>();
  int64_t before = store.ShardBytes(0);
  a.AddBytes(512);
  EXPECT_EQ(store.ShardBytes(0), before + 512);
}

TEST(DirtyTrackerTest, DedupesKeysAndAccumulatesGrowth) {
  DirtyTracker tracker;
  tracker.OnWrite(1, 100);
  tracker.OnWrite(1, 100);  // Re-touch: no new delta bytes.
  tracker.OnWrite(2, 50);
  tracker.OnGrow(8);
  EXPECT_EQ(tracker.dirty_keys(), 2u);
  EXPECT_EQ(tracker.dirty_bytes(), 158);
  EXPECT_EQ(tracker.writes(), 3);
}

TEST(StateAccessorTest, WritesFeedAttachedDirtyTracker) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(0, 1000).ok());
  DirtyTracker tracker;
  store.GetShard(0)->dirty = &tracker;
  {
    StateAccessor a(&store, 0, 7);
    *a.GetOrCreate<int64_t>() = 1;
    a.AddBytes(64);
  }
  EXPECT_EQ(tracker.dirty_keys(), 1u);
  EXPECT_EQ(tracker.dirty_bytes(),
            static_cast<int64_t>(sizeof(int64_t)) +
                StateAccessor::kEntryOverheadBytes + 64);
  store.GetShard(0)->dirty = nullptr;
  {
    StateAccessor a(&store, 0, 8);
    a.GetOrCreate<int64_t>();
  }
  EXPECT_EQ(tracker.dirty_keys(), 1u);  // Detached: no further tracking.
}

// ---- Flat tables: per-shard entries and the shard table ----

TEST(StateEntriesTest, OneShardGrowsToAThousandKeys) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(0, 0).ok());
  constexpr uint64_t kKeys = 1000;
  auto key_of = [](uint64_t i) { return i * 7919 + 3; };
  auto read_back = [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      StateAccessor a(&store, 0, key_of(i));
      ASSERT_EQ(*a.GetOrCreate<int64_t>(), static_cast<int64_t>(i) * 3);
    }
  };
  for (uint64_t i = 0; i < kKeys; ++i) {
    StateAccessor a(&store, 0, key_of(i));
    *a.GetOrCreate<int64_t>() = static_cast<int64_t>(i) * 3;
    ASSERT_EQ(store.GetShard(0)->entries.size(), i + 1);
    // Every earlier key survives the switch from scan to index and each
    // index rebuild just past it.
    if (i < 4 * StateEntries::kLinearScanMax) read_back(i + 1);
  }
  read_back(kKeys);
  EXPECT_EQ(store.GetShard(0)->entries.size(), kKeys);
  EXPECT_EQ(store.ShardBytes(0),
            static_cast<int64_t>(kKeys) *
                (static_cast<int64_t>(sizeof(int64_t)) +
                 StateAccessor::kEntryOverheadBytes));

  std::map<StateKey, int64_t> seen;
  for (const auto& [key, value] : store.GetShard(0)->entries) {
    const int64_t* v = std::any_cast<int64_t>(&value);
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(seen.emplace(key, *v).second) << "key " << key << " twice";
  }
  ASSERT_EQ(seen.size(), kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(seen[key_of(i)], static_cast<int64_t>(i) * 3);
  }
}

// Random create/extract/install/write churn on scattered shard ids, checked
// after every operation against a std::map model: catches probe chains
// broken by deletion and blobs mixed up when the table moves shards.
TEST(StateStoreTest, ChurnMatchesMapModel) {
  std::vector<ShardId> ids = {7, 4099, 8191, -5,
                              std::numeric_limits<ShardId>::max()};
  for (ShardId i = 0; i < 48; ++i) {
    ids.push_back(i);
    ids.push_back(i * 4096 + 3);
  }
  constexpr int64_t kEntryBytes =
      static_cast<int64_t>(sizeof(int64_t)) + StateAccessor::kEntryOverheadBytes;
  struct Model {
    int64_t base = 0;
    std::set<StateKey> keys;
    int64_t bytes() const {
      return base + static_cast<int64_t>(keys.size()) * kEntryBytes;
    }
  };
  std::map<ShardId, Model> live;    // In the store.
  std::map<ShardId, Model> parked;  // Extracted, awaiting re-install.
  std::map<ShardId, ShardState> blobs;
  ProcessStateStore store;
  Rng rng(11);

  auto check = [&]() {
    ASSERT_EQ(store.num_shards(), live.size());
    int64_t total = 0;
    for (const auto& [id, m] : live) total += m.bytes();
    ASSERT_EQ(store.TotalBytes(), total);
    for (ShardId id : ids) {
      auto it = live.find(id);
      ASSERT_EQ(store.HasShard(id), it != live.end()) << "shard " << id;
      ASSERT_EQ(store.ShardBytes(id), it == live.end() ? 0 : it->second.bytes());
      if (it == live.end()) continue;
      ShardState* state = store.GetShard(id);
      ASSERT_EQ(state->bytes(), it->second.bytes());
      ASSERT_EQ(state->entries.size(), it->second.keys.size());
      // Key 0 holds the shard's own id: proves the blob is this shard's.
      StateAccessor a(&store, id, 0);
      ASSERT_EQ(*a.GetOrCreate<int64_t>(), id);
    }
    std::set<ShardId> visited;
    store.ForEachShard([&](ShardId id, const ShardState& state) {
      EXPECT_TRUE(visited.insert(id).second);
      EXPECT_EQ(state.bytes(), live.at(id).bytes());
    });
    ASSERT_EQ(visited.size(), live.size());
  };

  for (int op = 0; op < 4000; ++op) {
    const ShardId id = ids[rng.NextBounded(static_cast<uint32_t>(ids.size()))];
    if (live.contains(id)) {
      EXPECT_EQ(store.CreateShard(id, 1).code(), StatusCode::kAlreadyExists);
      if (rng.NextBool(0.5)) {
        Result<ShardState> out = store.ExtractShard(id);
        ASSERT_TRUE(out.ok());
        ASSERT_EQ(out.value().bytes(), live[id].bytes());
        blobs.emplace(id, std::move(out).value());
        parked.emplace(id, live[id]);
        live.erase(id);
      } else {
        const StateKey key = 1 + rng.NextBounded(12);
        StateAccessor a(&store, id, key);
        *a.GetOrCreate<int64_t>() = op;
        live[id].keys.insert(key);
      }
    } else if (parked.contains(id)) {
      ASSERT_TRUE(store.InstallShard(id, std::move(blobs.at(id))).ok());
      blobs.erase(id);
      live.emplace(id, parked[id]);
      parked.erase(id);
    } else {
      EXPECT_EQ(store.ExtractShard(id).status().code(), StatusCode::kNotFound);
      const int64_t base = rng.NextBounded(1000);
      ASSERT_TRUE(store.CreateShard(id, base).ok());
      StateAccessor a(&store, id, 0);
      *a.GetOrCreate<int64_t>() = id;
      live[id] = Model{base, {0}};
    }
    check();
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(live.size(), 10u);
  EXPECT_GT(parked.size(), 10u);
}

TEST(StateStoreDeathTest, GetShardOnExtractedShardDies) {
  ProcessStateStore store;
  ASSERT_TRUE(store.CreateShard(4099, 10).ok());
  ASSERT_TRUE(store.CreateShard(3, 10).ok());
  ASSERT_TRUE(store.ExtractShard(4099).ok());
  EXPECT_DEATH(store.GetShard(4099), "absent shard \\(routing bug\\?\\)");
}

// ---- MigrationEngine ----

NetworkConfig MigNetConfig() {
  NetworkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s: easy arithmetic.
  cfg.propagation_ns = Micros(100);
  cfg.intra_node_ns = Micros(10);
  cfg.per_message_overhead_bytes = 0;
  return cfg;
}

struct MigrationRig {
  exec::SimBackend sim;
  Network net;
  MigrationEngine engine;
  ProcessStateStore src, dst;

  explicit MigrationRig(MigrationConfig cfg = MigrationConfig{})
      : net(&sim, 4, MigNetConfig()), engine(&sim, &net, cfg) {}
};

TEST(MigrationEngineTest, SyncBlobShipsEverythingInThePause) {
  MigrationRig rig;
  ASSERT_TRUE(rig.src.CreateShard(2, 100 * 1000).ok());
  MigrationStats stats;
  bool done = false;
  rig.engine.MigrateSync(&rig.src, &rig.dst, 2, /*from=*/0, /*to=*/1,
                         /*local_copy_bytes_per_sec=*/0.0,
                         [&](const MigrationStats& s) {
                           stats = s;
                           done = true;
                         });
  rig.sim.RunAll();
  ASSERT_TRUE(done);
  EXPECT_FALSE(rig.src.HasShard(2));
  EXPECT_TRUE(rig.dst.HasShard(2));
  EXPECT_EQ(rig.dst.ShardBytes(2), 100 * 1000);
  EXPECT_TRUE(stats.inter_node);
  EXPECT_EQ(stats.chunks, 0);  // Nothing pre-copies under sync-blob.
  EXPECT_EQ(stats.precopy_bytes, 0);
  EXPECT_EQ(stats.delta_bytes, 100 * 1000);
  EXPECT_EQ(stats.moved_bytes, 100 * 1000);
  // 100 KB at 1 MB/s = 100 ms transmission + propagation: a full pause.
  EXPECT_EQ(stats.finalize_ns, Millis(100) + Micros(100));
  EXPECT_EQ(rig.net.inter_node_bytes(Purpose::kStateMigration), 100 * 1000);
}

TEST(MigrationEngineTest, SameNodeFreeHandoffIsSynchronous) {
  MigrationRig rig;
  ASSERT_TRUE(rig.src.CreateShard(3, 64 * kKiB).ok());
  bool done = false;
  rig.engine.MigrateSync(&rig.src, &rig.dst, 3, /*from=*/1, /*to=*/1, 0.0,
                         [&](const MigrationStats& s) {
                           EXPECT_FALSE(s.inter_node);
                           EXPECT_EQ(s.finalize_ns, 0);
                           done = true;
                         });
  EXPECT_TRUE(done);  // No event needed: intra-process handoff is free.
  EXPECT_TRUE(rig.dst.HasShard(3));
  EXPECT_EQ(rig.net.inter_node_bytes(Purpose::kStateMigration), 0);
}

TEST(MigrationEngineTest, ChunkedPrecopyChunkAndByteAccounting) {
  MigrationConfig cfg;
  cfg.strategy = MigrationStrategy::kChunkedLive;
  cfg.chunk_bytes = 64 * kKiB;
  MigrationRig rig(cfg);
  ASSERT_TRUE(rig.src.CreateShard(7, 256 * kKiB).ok());
  bool precopied = false;
  auto handle = rig.engine.Begin(&rig.src, 7, /*from=*/0, /*to=*/1, 0.0,
                                 [&]() { precopied = true; });
  rig.sim.RunAll();
  ASSERT_TRUE(precopied);
  ASSERT_TRUE(handle->precopy_done());
  EXPECT_EQ(handle->stats().chunks, 4);  // 256 KB / 64 KB.
  EXPECT_EQ(handle->stats().precopy_bytes, 256 * kKiB);
  EXPECT_GT(handle->stats().precopy_ns, 0);
  // The shard never left the source during pre-copy.
  EXPECT_TRUE(rig.src.HasShard(7));

  MigrationStats stats;
  bool done = false;
  rig.engine.Finalize(handle, &rig.dst, [&](const MigrationStats& s) {
    stats = s;
    done = true;
  });
  rig.sim.RunAll();
  ASSERT_TRUE(done);
  EXPECT_TRUE(rig.dst.HasShard(7));
  EXPECT_FALSE(rig.src.HasShard(7));
  EXPECT_EQ(stats.delta_bytes, 0);  // Nothing written while pre-copying.
  EXPECT_EQ(stats.moved_bytes, 256 * kKiB);
  EXPECT_EQ(stats.finalize_ns, 0);  // Empty delta: instant flip.
  EXPECT_EQ(rig.net.inter_node_bytes(Purpose::kStateMigration), 256 * kKiB);
  EXPECT_EQ(rig.engine.chunks_shipped(), 4);
  EXPECT_EQ(rig.engine.bytes_shipped(), 256 * kKiB);
  EXPECT_EQ(rig.engine.migrations_begun(), 1);
  EXPECT_EQ(rig.engine.migrations_completed(), 1);
}

TEST(MigrationEngineTest, DirtyDeltaReplayedUnderConcurrentWrites) {
  MigrationConfig cfg;
  cfg.strategy = MigrationStrategy::kChunkedLive;
  cfg.chunk_bytes = 16 * kKiB;
  MigrationRig rig(cfg);
  ASSERT_TRUE(rig.src.CreateShard(9, 128 * kKiB).ok());
  // Pre-copy takes ~128 ms at 1 MB/s; writes land while chunks stream.
  auto handle = rig.engine.Begin(&rig.src, 9, /*from=*/0, /*to=*/1, 0.0,
                                 nullptr);
  for (int i = 0; i < 5; ++i) {
    rig.sim.After(Millis(10 * (i + 1)), [&rig, i]() {
      StateAccessor a(&rig.src, 9, /*key=*/100 + i);
      *a.GetOrCreate<int64_t>() = 1000 + i;
    });
  }
  rig.sim.RunAll();
  ASSERT_TRUE(handle->precopy_done());
  EXPECT_EQ(handle->dirty().dirty_keys(), 5u);
  const int64_t per_entry = static_cast<int64_t>(sizeof(int64_t)) +
                            StateAccessor::kEntryOverheadBytes;
  EXPECT_EQ(handle->dirty().dirty_bytes(), 5 * per_entry);

  MigrationStats stats;
  rig.engine.Finalize(handle, &rig.dst,
                      [&](const MigrationStats& s) { stats = s; });
  rig.sim.RunAll();
  EXPECT_EQ(stats.delta_bytes, 5 * per_entry);
  EXPECT_EQ(stats.moved_bytes, stats.precopy_bytes + 5 * per_entry);
  EXPECT_GT(stats.finalize_ns, 0);  // The delta ships inside the pause.
  EXPECT_LT(stats.finalize_ns, Millis(5));  // ... but it is tiny.
  // Correctness: every concurrent write is present at the destination.
  for (int i = 0; i < 5; ++i) {
    StateAccessor a(&rig.dst, 9, 100 + i);
    EXPECT_EQ(*a.GetOrCreate<int64_t>(), 1000 + i);
  }
}

TEST(MigrationEngineTest, SameNodeChunkedCopyPaysLocalRate) {
  MigrationConfig cfg;
  cfg.strategy = MigrationStrategy::kChunkedLive;
  MigrationRig rig(cfg);
  ASSERT_TRUE(rig.src.CreateShard(4, 2 * kMiB).ok());
  auto handle = rig.engine.Begin(&rig.src, 4, /*from=*/2, /*to=*/2,
                                 /*local_copy_bytes_per_sec=*/2e9, nullptr);
  rig.sim.RunAll();
  ASSERT_TRUE(handle->precopy_done());
  // 2 MiB at 2 GB/s ~= 1.05 ms of serialize+copy, no network traffic.
  EXPECT_GT(handle->stats().precopy_ns, Micros(900));
  EXPECT_EQ(rig.net.inter_node_bytes(Purpose::kStateMigration), 0);
  bool done = false;
  rig.engine.Finalize(handle, &rig.dst,
                      [&](const MigrationStats&) { done = true; });
  rig.sim.RunAll();
  EXPECT_TRUE(done);
  EXPECT_TRUE(rig.dst.HasShard(4));
}

TEST(MigrationEngineTest, MigrationPreservesUserEntries) {
  MigrationRig rig;
  ASSERT_TRUE(rig.src.CreateShard(3, 1000).ok());
  {
    StateAccessor accessor(&rig.src, 3, /*key=*/42);
    *accessor.GetOrCreate<int64_t>() = 7;
  }
  bool done = false;
  rig.engine.MigrateSync(&rig.src, &rig.dst, 3, 0, 1, 0.0,
                         [&](const MigrationStats&) { done = true; });
  rig.sim.RunAll();
  ASSERT_TRUE(done);
  StateAccessor accessor(&rig.dst, 3, 42);
  EXPECT_EQ(*accessor.GetOrCreate<int64_t>(), 7);
}

TEST(MigrationEngineTest, MissingShardNotFoundThroughStore) {
  ProcessStateStore store;
  EXPECT_FALSE(store.HasShard(2));
  ASSERT_TRUE(store.CreateShard(2, 100).ok());
  EXPECT_TRUE(store.HasShard(2));
  EXPECT_EQ(store.ShardBytes(5), 0);  // Absent shard: zero bytes.
}

// ---- StateBackend implementations ----

TEST(StateBackendTest, LocalSharedProcessLifecycle) {
  LocalSharedBackend backend;
  ProcessStateStore* home = backend.AddProcess(0);
  EXPECT_EQ(backend.AddProcess(0), home);  // Idempotent.
  ASSERT_TRUE(home->CreateShard(1, 500).ok());
  ProcessStateStore* remote = backend.AddProcess(1);
  EXPECT_NE(home, remote);
  EXPECT_EQ(backend.AccessStore(0), home);
  EXPECT_EQ(backend.AccessStore(1), remote);
  EXPECT_EQ(backend.TotalBytes(), 500);
  EXPECT_FALSE(backend.NeedsMigration(0, 0));  // Intra-process sharing.
  EXPECT_TRUE(backend.NeedsMigration(0, 1));
  EXPECT_EQ(backend.OnTupleAccess(1), 0);
  EXPECT_DOUBLE_EQ(backend.local_copy_bytes_per_sec(), 0.0);
  backend.RemoveProcess(1);  // Empty: fine.
}

TEST(StateBackendTest, AlwaysMigratePolicy) {
  AlwaysMigrateBackend backend(2e9);
  EXPECT_TRUE(backend.NeedsMigration(0, 0));  // Even same-process moves.
  EXPECT_TRUE(backend.NeedsMigration(0, 1));
  EXPECT_DOUBLE_EQ(backend.local_copy_bytes_per_sec(), 2e9);
  EXPECT_EQ(backend.kind(), StateBackendKind::kAlwaysMigrate);
}

TEST(StateBackendTest, ExternalKvRoutesEveryNodeToHomeStore) {
  ExternalKvBackend backend(/*home=*/0, /*net=*/nullptr, Micros(150), 128);
  ProcessStateStore* store = backend.AddProcess(0);
  EXPECT_EQ(backend.AddProcess(3), store);   // One store for the cluster.
  EXPECT_EQ(backend.AccessStore(2), store);  // Remote tasks read it too.
  EXPECT_FALSE(backend.NeedsMigration(0, 3));
  EXPECT_EQ(backend.OnTupleAccess(2), 2 * Micros(150));  // Read + write.
}

TEST(StateBackendTest, ExternalKvAttributesAccessBytesToNetwork) {
  exec::SimBackend sim;
  Network net(&sim, 4, MigNetConfig());
  ExternalKvBackend backend(/*home=*/0, &net, Micros(150), 128);
  // A task on a remote node: the read/write round trip crosses the wire.
  backend.OnTupleAccess(/*task_node=*/2);
  sim.RunAll();
  EXPECT_EQ(net.inter_node_bytes(Purpose::kStateAccess), 2 * 128);
  // A task co-located with the store: loopback accounting only.
  backend.OnTupleAccess(/*task_node=*/0);
  sim.RunAll();
  EXPECT_EQ(net.intra_node_bytes(Purpose::kStateAccess), 2 * 128);
}

TEST(StateBackendTest, FactorySelectsBackend) {
  StateLayerConfig config;
  config.backend = StateBackendKind::kLocalShared;
  EXPECT_EQ(CreateStateBackend(config, 0, nullptr)->kind(),
            StateBackendKind::kLocalShared);
  config.backend = StateBackendKind::kAlwaysMigrate;
  EXPECT_EQ(CreateStateBackend(config, 0, nullptr)->kind(),
            StateBackendKind::kAlwaysMigrate);
  config.backend = StateBackendKind::kExternalKv;
  EXPECT_EQ(CreateStateBackend(config, 0, nullptr)->kind(),
            StateBackendKind::kExternalKv);
  EXPECT_STREQ(StateBackendName(StateBackendKind::kExternalKv), "external-kv");
  EXPECT_STREQ(MigrationStrategyName(MigrationStrategy::kChunkedLive),
               "chunked-live");
}

}  // namespace
}  // namespace elasticutor
