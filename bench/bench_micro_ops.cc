// google-benchmark micro-operation benchmarks: the hot-path primitives of
// the system — hashing/routing, Zipf sampling, the balancer's planning
// round, Erlang-C/Jackson evaluation, Algorithm 1, the event queue and the
// order book. These bound the realism of the "scheduling time" results and
// document the cost of each building block.
#include <benchmark/benchmark.h>

#include "elasticutor/elasticutor.h"
#include "oracle/dense_assignment.h"

namespace elasticutor {
namespace {

void BM_HashKey(benchmark::State& state) {
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashKey(++key, 3));
  }
}
BENCHMARK(BM_HashKey);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(10000, 0.5);
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue queue;
  int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.Push(t + (i * 37) % 101, []() {});
    }
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(queue.Pop());
    }
    t += 101;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_ErlangC(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MmkSojournSeconds(k, k * 900.0, 1000.0));
  }
}
BENCHMARK(BM_ErlangC)->Arg(2)->Arg(8)->Arg(32);

void BM_GreedyAllocation(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  std::vector<ExecutorDemand> demands(m);
  Rng rng(7);
  for (auto& d : demands) {
    d.lambda = 500.0 + rng.NextDouble() * 8000.0;
    d.mu = 1000.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(AllocateCores(demands, 256, 0.05, true));
  }
}
BENCHMARK(BM_GreedyAllocation)->Arg(32)->Arg(192);

AssignmentInput AssignmentBenchInput(int m) {
  const int n = 32;
  AssignmentInput in;
  in.node_capacity.assign(n, 8);
  in.home.resize(m);
  in.target.resize(m);
  in.state_bytes.assign(m, 8e6);
  in.data_intensity.assign(m, 100e3);
  in.current = SparseAssignment(m);
  Rng rng(11);
  int total = 0;
  for (int j = 0; j < m; ++j) {
    in.home[j] = j % n;
    in.current.Add(j % n, j, 1);
    in.target[j] = 1 + static_cast<int>(rng.NextBounded(3));
    total += in.target[j];
  }
  while (total > 256) {
    int j = static_cast<int>(rng.NextBounded(m));
    if (in.target[j] > 1) {
      --in.target[j];
      --total;
    }
  }
  return in;
}

void BM_Assignment(benchmark::State& state) {
  AssignmentInput in = AssignmentBenchInput(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignment(in));
  }
}
BENCHMARK(BM_Assignment)->Arg(32)->Arg(192);

void BM_AssignmentDense(benchmark::State& state) {
  AssignmentInput in = AssignmentBenchInput(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignmentDense(in));
  }
}
BENCHMARK(BM_AssignmentDense)->Arg(32)->Arg(192);

void BM_BalancerPlan(benchmark::State& state) {
  int shards = static_cast<int>(state.range(0));
  std::vector<double> load = ZipfWeights(shards, 0.5);
  for (auto _ : state) {
    std::vector<int> assignment(shards);
    for (int s = 0; s < shards; ++s) assignment[s] = s % 8;
    benchmark::DoNotOptimize(
        balance::PlanMoves(load, &assignment, 8, 1.2, 256));
  }
}
BENCHMARK(BM_BalancerPlan)->Arg(256)->Arg(8192);

void BM_OrderBookExecute(benchmark::State& state) {
  OrderBook book;
  Rng rng(3);
  std::vector<Trade> trades;
  for (auto _ : state) {
    trades.clear();
    auto side = rng.NextBool(0.5) ? OrderBook::Side::kBuy
                                  : OrderBook::Side::kSell;
    int64_t price = 1000 + static_cast<int64_t>(rng.NextGaussian(0, 3));
    benchmark::DoNotOptimize(book.Execute(side, price, 100, &trades));
  }
}
BENCHMARK(BM_OrderBookExecute);

void BM_StateAccess(benchmark::State& state) {
  ProcessStateStore store;
  ELASTICUTOR_CHECK(store.CreateShard(0, 32768).ok());
  uint64_t key = 0;
  for (auto _ : state) {
    StateAccessor accessor(&store, 0, key++ % 1024);
    benchmark::DoNotOptimize(accessor.GetOrCreate<int64_t>());
  }
}
BENCHMARK(BM_StateAccess);

// The shapes the repo benchmark runs: `sim-omega16` spreads ~10k keys over
// 8192 shards (about one key per shard), `saturate` puts 4096 keys on 16
// shards. Each access is a StateAccessor plus GetOrCreate of a 24-byte
// value on a key drawn uniformly from the populated set.
void BM_StateAccessShape(benchmark::State& state) {
  struct Value {
    int64_t a, b, c;
  };
  const auto shards = static_cast<uint64_t>(state.range(0));
  const auto keys = static_cast<uint64_t>(state.range(1));
  ProcessStateStore store;
  for (uint64_t s = 0; s < shards; ++s) {
    ELASTICUTOR_CHECK(store.CreateShard(static_cast<ShardId>(s), 0).ok());
  }
  auto shard_of = [&](uint64_t key) {
    return static_cast<ShardId>(HashKey(key) % shards);
  };
  for (uint64_t k = 0; k < keys; ++k) {
    StateAccessor(&store, shard_of(k), k).GetOrCreate<Value>();
  }
  Rng rng(5);
  std::vector<std::pair<ShardId, uint64_t>> order(1 << 16);
  for (auto& [shard, key] : order) {
    key = rng.NextBounded(static_cast<uint32_t>(keys));
    shard = shard_of(key);
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [shard, key] = order[i++ & (order.size() - 1)];
    StateAccessor accessor(&store, shard, key);
    benchmark::DoNotOptimize(accessor.GetOrCreate<Value>());
  }
}
BENCHMARK(BM_StateAccessShape)->Args({8192, 10000})->Args({16, 4096});

}  // namespace
}  // namespace elasticutor

BENCHMARK_MAIN();
