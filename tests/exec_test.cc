// Unit tests for the execution-backend seam (src/exec/): the native
// backend's timer semantics (which must mirror the simulator's), the bounded
// MPSC channel and its spin-then-park handoff, the batch pool, the native
// telemetry contract, and the thread-safety of the EventFn heap-allocation
// counter. The sim-vs-native dataflow equivalence lives in
// native_equivalence_test.cc.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "elasticutor/elasticutor.h"
#include "engine/engine_config.h"
#include "exec/batch_pool.h"
#include "exec/mpsc_channel.h"
#include "exec/native_backend.h"
#include "exec/sim_backend.h"
#include "exec/telemetry.h"
#include "sim/event_fn.h"

namespace elasticutor {
namespace {

using exec::BatchPool;
using exec::MpscChannel;
using exec::NativeBackend;
using exec::TupleBatchStorage;

// ---------------------------------------------------------------------------
// NativeBackend: wall-clock timers with simulator-compatible semantics.
// ---------------------------------------------------------------------------

TEST(NativeBackendTest, KindAndNameRoundTrip) {
  NativeBackend backend;
  EXPECT_EQ(backend.kind(), exec::BackendKind::kNative);
  EXPECT_STREQ(exec::BackendKindName(backend.kind()), "native");
  exec::SimBackend sim;
  EXPECT_STREQ(exec::BackendKindName(sim.kind()), "sim");
}

TEST(NativeBackendTest, NowIsMonotonic) {
  NativeBackend backend;
  SimTime a = backend.now();
  SimTime b = backend.now();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

TEST(NativeBackendTest, AfterFiresWithinRunUntil) {
  NativeBackend backend;
  bool fired = false;
  backend.After(Millis(1), [&]() { fired = true; });
  uint64_t executed = backend.RunUntil(backend.now() + Millis(200));
  EXPECT_TRUE(fired);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(backend.events_executed(), 1u);
}

TEST(NativeBackendTest, NegativeDelayClampsToNow) {
  NativeBackend backend;
  bool fired = false;
  backend.After(-Millis(5), [&]() { fired = true; });  // Clamps like sim.
  backend.RunUntil(backend.now() + Millis(50));
  EXPECT_TRUE(fired);
}

TEST(NativeBackendTest, SameDeadlineFiresInScheduleOrder) {
  NativeBackend backend;
  std::vector<int> order;
  const SimTime at = backend.now() + Millis(2);
  for (int i = 0; i < 8; ++i) {
    backend.At(at, [&order, i]() { order.push_back(i); });
  }
  backend.RunUntil(at + Millis(200));
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(NativeBackendTest, CancelPreventsFiring) {
  NativeBackend backend;
  bool fired = false;
  EventId id = backend.After(Millis(5), [&]() { fired = true; });
  EXPECT_TRUE(backend.Cancel(id));
  EXPECT_FALSE(backend.Cancel(id));  // Already cancelled.
  backend.RunUntil(backend.now() + Millis(50));
  EXPECT_FALSE(fired);
  EXPECT_EQ(backend.events_executed(), 0u);
}

TEST(NativeBackendTest, CancelAfterFiringReturnsFalse) {
  NativeBackend backend;
  EventId id = backend.After(0, []() {});
  backend.RunUntil(backend.now() + Millis(50));
  EXPECT_FALSE(backend.Cancel(id));
}

TEST(NativeBackendTest, ScheduleFromAnotherThreadFires) {
  NativeBackend backend;
  std::atomic<bool> fired{false};
  // The driver parks far in the future; a worker schedules an earlier timer,
  // which must wake the driver rather than wait out the original deadline.
  std::thread scheduler([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    backend.After(0, [&]() { fired.store(true); });
  });
  backend.RunUntil(backend.now() + Millis(500));
  scheduler.join();
  EXPECT_TRUE(fired.load());
}

TEST(NativeBackendTest, StopWakesUnboundedRunUntil) {
  NativeBackend backend;
  std::thread stopper([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    backend.Stop();
  });
  backend.RunUntil(kSimTimeMax);  // Returns promptly on Stop, no deadline.
  stopper.join();
}

TEST(NativeBackendTest, PeriodicFiresUntilCallbackDeclines) {
  NativeBackend backend;
  int fires = 0;
  backend.Periodic(backend.now() + Millis(1), Millis(1),
                   [&](SimTime) { return ++fires < 3; });
  backend.RunUntil(backend.now() + Millis(500));
  EXPECT_EQ(fires, 3);
}

// ---------------------------------------------------------------------------
// MpscChannel.
// ---------------------------------------------------------------------------

TEST(MpscChannelTest, FifoRoundTripAndCloseDrain) {
  MpscChannel ch(/*capacity=*/4, /*producers=*/1);
  std::array<TupleBatchStorage, 3> batches;
  for (auto& b : batches) EXPECT_TRUE(ch.Push(&b));
  ch.CloseProducer();
  // Closed but not drained: batches come out in FIFO order, then nullptr.
  EXPECT_EQ(ch.Pop(), &batches[0]);
  EXPECT_EQ(ch.TryPop(), &batches[1]);
  EXPECT_EQ(ch.Pop(), &batches[2]);
  EXPECT_EQ(ch.Pop(), nullptr);
  EXPECT_EQ(ch.TryPop(), nullptr);
  EXPECT_EQ(ch.batches_pushed(), 3);
}

TEST(MpscChannelTest, TryPopOnEmptyOpenChannelReturnsNull) {
  MpscChannel ch(2, 1);
  EXPECT_EQ(ch.TryPop(), nullptr);
  ch.CloseProducer();
}

// Polls a channel's contention counter until the other thread has blocked
// on it. Waiting for the event, not for a fixed sleep, keeps a loaded host
// (where the thread may not run for milliseconds) from failing the check.
template <typename Counter>
void AwaitBlocked(Counter counter) {
  const auto hang = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (counter() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), hang) << "thread never blocked";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(MpscChannelTest, PopBlocksUntilPush) {
  MpscChannel ch(2, 1);
  TupleBatchStorage batch;
  TupleBatchStorage* popped = nullptr;
  std::thread consumer([&]() { popped = ch.Pop(); });
  AwaitBlocked([&] { return ch.pop_waits(); });
  EXPECT_TRUE(ch.Push(&batch));
  consumer.join();
  EXPECT_EQ(popped, &batch);
  EXPECT_GE(ch.pop_waits(), 1);
  ch.CloseProducer();
}

TEST(MpscChannelTest, FullChannelBlocksProducerUntilPop) {
  MpscChannel ch(/*capacity=*/1, /*producers=*/1);
  TupleBatchStorage first, second;
  EXPECT_TRUE(ch.Push(&first));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&]() {
    EXPECT_TRUE(ch.Push(&second));  // Blocks: channel is full.
    second_pushed.store(true);
  });
  AwaitBlocked([&] { return ch.push_blocks(); });
  EXPECT_EQ(ch.Pop(), &first);  // Frees a slot; producer unblocks.
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(ch.Pop(), &second);
  EXPECT_GE(ch.push_blocks(), 1);
  ch.CloseProducer();
}

TEST(MpscChannelTest, LastProducerCloseWakesBlockedConsumer) {
  MpscChannel ch(4, /*producers=*/3);
  TupleBatchStorage sentinel;
  TupleBatchStorage* popped = &sentinel;
  std::thread consumer([&]() { popped = ch.Pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ch.CloseProducer();
  ch.CloseProducer();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ch.CloseProducer();  // Last close: consumer must see nullptr.
  consumer.join();
  EXPECT_EQ(popped, nullptr);
}

TEST(MpscChannelTest, MultiProducerStressDeliversEverything) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  MpscChannel ch(/*capacity=*/8, kProducers);
  std::vector<std::unique_ptr<TupleBatchStorage>> storage;
  storage.reserve(kProducers * kPerProducer);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    storage.push_back(std::make_unique<TupleBatchStorage>());
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p]() {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(ch.Push(storage[p * kPerProducer + i].get()));
      }
      ch.CloseProducer();
    });
  }
  int consumed = 0;
  while (ch.Pop() != nullptr) ++consumed;
  for (auto& t : producers) t.join();
  EXPECT_EQ(consumed, kProducers * kPerProducer);
  EXPECT_EQ(ch.batches_pushed(), kProducers * kPerProducer);
}

TEST(MpscChannelTest, AbortUnblocksFullChannelProducer) {
  MpscChannel ch(/*capacity=*/1, /*producers=*/1);
  TupleBatchStorage first, second;
  EXPECT_TRUE(ch.Push(&first));
  std::atomic<bool> push_result{true};
  std::thread producer([&]() { push_result.store(ch.Push(&second)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ch.Abort();
  producer.join();
  EXPECT_FALSE(push_result.load());  // Aborted push reports failure.
}

// Spins until `d` of steady-clock time passed; returns the time spent.
int64_t SpinFor(std::chrono::nanoseconds d) {
  const auto entry = std::chrono::steady_clock::now();
  auto now = entry;
  while (now - entry < d) now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now - entry)
      .count();
}

// Spin-then-park handoff. The spinning cases use a spin bound far longer
// than any wait below, so "the consumer is still spinning" holds
// deterministically; the parked cases use a zero bound and wait for the
// park to be counted.
constexpr std::chrono::nanoseconds kLongSpin = std::chrono::seconds(30);

// Blocks until `ch` counts `waits` consumer parks.
void AwaitParks(const MpscChannel& ch, int64_t waits) {
  while (ch.pop_waits() < waits) std::this_thread::yield();
}

TEST(MpscChannelTest, BatchPushedDuringSpinIsTakenWithoutPark) {
  MpscChannel ch(/*capacity=*/2, /*producers=*/1, kLongSpin);
  TupleBatchStorage batch;
  std::atomic<bool> entered{false};
  TupleBatchStorage* popped = nullptr;
  std::thread consumer([&] {
    entered.store(true);
    popped = ch.Pop();
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto pushed = std::chrono::steady_clock::now();
  ASSERT_TRUE(ch.Push(&batch));
  consumer.join();
  EXPECT_EQ(popped, &batch);
  EXPECT_EQ(ch.pop_waits(), 0);  // Taken in the spin: no park, no wake.
  EXPECT_LT(std::chrono::steady_clock::now() - pushed,
            std::chrono::seconds(5));
  ch.CloseProducer();
}

enum class Wake { kKick, kCloseProducer, kAbort };

class ChannelWakeTest
    : public ::testing::TestWithParam<std::tuple<Wake, bool>> {};

TEST_P(ChannelWakeTest, WakesSpinningOrParkedConsumerPromptly) {
  const auto [wake, parked] = GetParam();
  MpscChannel ch(/*capacity=*/2, /*producers=*/1,
                 parked ? std::chrono::nanoseconds(0) : kLongSpin);
  std::atomic<bool> entered{false};
  std::atomic<bool> returned{false};
  TupleBatchStorage sentinel;
  TupleBatchStorage* popped = &sentinel;
  std::thread consumer([&] {
    entered.store(true);
    popped = ch.Pop();
    returned.store(true);
  });
  while (!entered.load()) std::this_thread::yield();
  if (parked) {
    AwaitParks(ch, 1);
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  switch (wake) {
    case Wake::kKick: ch.Kick(); break;
    case Wake::kCloseProducer: ch.CloseProducer(); break;
    case Wake::kAbort: ch.Abort(); break;
  }
  // Promptly: well inside the spin bound, and without any other event.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(returned.load()) << "consumer missed the wake-up";
  if (!returned.load()) ch.Abort();  // Unstick the join.
  consumer.join();
  EXPECT_EQ(popped, nullptr);  // Nothing was pushed.
  EXPECT_EQ(ch.pop_waits(), parked ? 1 : 0);
  // A kick is a wake-up, not a shutdown; close and abort end the stream.
  EXPECT_EQ(ch.exhausted(), wake != Wake::kKick);
  if (wake == Wake::kKick) ch.CloseProducer();
}

std::string WakeCaseName(
    const ::testing::TestParamInfo<ChannelWakeTest::ParamType>& info) {
  static const char* const kNames[] = {"Kick", "CloseProducer", "Abort"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) ? "Parked" : "Spinning");
}

INSTANTIATE_TEST_SUITE_P(
    AllWakes, ChannelWakeTest,
    ::testing::Combine(::testing::Values(Wake::kKick, Wake::kCloseProducer,
                                         Wake::kAbort),
                       ::testing::Bool()),
    WakeCaseName);

TEST(MpscChannelTest, SpinToParkTransitionLosesNoWakeUp) {
  // Producers push after busy pauses drawn around the spin bound, so the
  // consumer keeps crossing from spinning to parked while batches land —
  // the window a lost wake-up hides in. A lost wake-up strands the
  // consumer on a non-empty ring; the watchdog turns that into a failure
  // instead of a hang. Under TSan this is also the race check of the
  // spin's lock-free poll.
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 20000;
  constexpr auto kSpin = std::chrono::microseconds(2);
  MpscChannel ch(/*capacity=*/4, kProducers, kSpin);
  std::vector<TupleBatchStorage> storage(kProducers * kPerProducer);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(p + 1);
      for (int i = 0; i < kPerProducer; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // 0 .. 2x spin, in ns steps.
        SpinFor(std::chrono::nanoseconds(x % (2 * kSpin.count() * 1000)));
        EXPECT_TRUE(ch.Push(&storage[p * kPerProducer + i]));
      }
      ch.CloseProducer();
    });
  }
  std::atomic<bool> done{false};
  std::atomic<int> consumed{0};
  std::thread consumer([&] {
    for (;;) {
      if (ch.Pop() != nullptr) {
        consumed.fetch_add(1);
      } else if (ch.exhausted()) {
        break;
      }
    }
    done.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(done.load()) << "consumer stranded after " << consumed.load()
                           << " batches (lost wake-up)";
  if (!done.load()) ch.Abort();
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(ch.batches_pushed(), kProducers * kPerProducer);
  EXPECT_GT(ch.pop_waits(), 0);  // The park side was exercised too.
}

// ---------------------------------------------------------------------------
// BatchPool.
// ---------------------------------------------------------------------------

TEST(BatchPoolTest, ReleaseThenAcquireReusesWithoutAllocating) {
  BatchPool pool;
  TupleBatchStorage* a = pool.Acquire();
  EXPECT_EQ(pool.allocated(), 1);
  a->tuples.resize(16);
  const size_t capacity = a->tuples.capacity();
  pool.Release(a);
  TupleBatchStorage* b = pool.Acquire();
  EXPECT_EQ(b, a);                 // Reused, not reallocated.
  EXPECT_EQ(pool.allocated(), 1);  // Flat: the steady-state invariant.
  EXPECT_TRUE(b->tuples.empty());  // Cleared on release...
  EXPECT_GE(b->tuples.capacity(), capacity);  // ...but capacity retained.
  pool.Release(b);
}

TEST(BatchPoolTest, ConcurrentAcquireReleaseIsSafe) {
  BatchPool pool;
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kRounds; ++i) {
        TupleBatchStorage* batch = pool.Acquire();
        batch->tuples.emplace_back();
        pool.Release(batch);
      }
    });
  }
  for (auto& t : threads) t.join();
  // At most one live batch per thread at any instant.
  EXPECT_GE(pool.allocated(), 1);
  EXPECT_LE(pool.allocated(), kThreads);
}

// ---------------------------------------------------------------------------
// EventFn::heap_allocations() under concurrent construction.
// ---------------------------------------------------------------------------

TEST(EventFnCounterTest, ConcurrentHeapFallbacksAreCountedExactly) {
  const int64_t before = EventFn::heap_allocations();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([]() {
      for (int i = 0; i < kPerThread; ++i) {
        // Oversized capture: guaranteed inline-storage miss.
        std::array<char, EventFn::kInlineBytes + 1> big{};
        EventFn fn([big]() { (void)big; });
        fn();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Relaxed atomics still count exactly; only ordering is unconstrained.
  EXPECT_EQ(EventFn::heap_allocations() - before, kThreads * kPerThread);
}

TEST(EventFnCounterTest, InlineCallablesDoNotTouchTheCounter) {
  const int64_t before = EventFn::heap_allocations();
  int x = 0;
  EventFn fn([&x]() { ++x; });
  EXPECT_FALSE(fn.on_heap());
  fn();
  EXPECT_EQ(x, 1);
  EXPECT_EQ(EventFn::heap_allocations(), before);
}

// ---------------------------------------------------------------------------
// In-channel labeling barrier: label-marker batches, MpscChannel::Kick, and
// the ReassignProtocol label count that consumes them (the protocol's own
// unit tests live in elastic_test.cc).
// ---------------------------------------------------------------------------

TEST(MpscChannelTest, LabelMarkerArrivesBehindEarlierBatches) {
  // The whole point of the in-channel barrier: a marker pushed after N data
  // batches is popped after all N (per-producer FIFO), and Release resets
  // the label stamp so recycled batches are plain data again.
  MpscChannel channel(/*capacity=*/8, /*producers=*/1);
  BatchPool pool;
  constexpr int kData = 3;
  for (int i = 0; i < kData; ++i) {
    TupleBatchStorage* batch = pool.Acquire();
    EXPECT_EQ(batch->label_id, -1);
    batch->tuples.push_back(Tuple{});
    ASSERT_TRUE(channel.Push(batch));
  }
  TupleBatchStorage* marker = pool.Acquire();
  marker->label_id = 42;
  ASSERT_TRUE(channel.Push(marker));
  for (int i = 0; i < kData; ++i) {
    TupleBatchStorage* batch = channel.Pop();
    ASSERT_NE(batch, nullptr);
    EXPECT_EQ(batch->label_id, -1) << "marker overtook batch " << i;
    pool.Release(batch);
  }
  TupleBatchStorage* popped = channel.Pop();
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(popped->label_id, 42);
  pool.Release(popped);
  EXPECT_EQ(popped->label_id, -1);  // Recycled batches are data again.
}

TEST(MpscChannelTest, KickWakesBlockedPopWithoutClosing) {
  MpscChannel channel(/*capacity=*/2, /*producers=*/1);
  BatchPool pool;
  std::atomic<int> null_pops{0};
  TupleBatchStorage* got = nullptr;
  std::thread consumer([&] {
    for (;;) {
      TupleBatchStorage* batch = channel.Pop();
      if (batch != nullptr) {
        got = batch;
        return;
      }
      ASSERT_FALSE(channel.exhausted());  // A kick, not a shutdown.
      null_pops.fetch_add(1);
    }
  });
  // The consumer may be mid-Pop or not yet there; Kick must wake it either
  // way (the flag persists until the next Pop returns).
  channel.Kick();
  while (null_pops.load() == 0) std::this_thread::yield();
  TupleBatchStorage* batch = pool.Acquire();
  ASSERT_TRUE(channel.Push(batch));
  consumer.join();
  EXPECT_EQ(got, batch);
  EXPECT_FALSE(channel.exhausted());
  channel.CloseProducer();
  EXPECT_TRUE(channel.exhausted());
  pool.Release(batch);
}

TEST(MpscChannelTest, BarrierDrainsAcrossProducerClose) {
  // Two producers feed one consumer. Producer A pushes data then its
  // marker; producer B closes without ever pushing (its marker duty was
  // swept before the close — modeled here by the barrier expecting only
  // A's marker). The consumer's barrier completes exactly when A's marker
  // arrives, and the channel is exhausted only after both closed.
  MpscChannel channel(/*capacity=*/8, /*producers=*/2);
  BatchPool pool;
  ReassignProtocol protocol;
  const int64_t id = protocol.Request(/*op=*/1, /*shard=*/0, /*from=*/0,
                                      /*to=*/1, /*moves_state=*/false);
  ASSERT_TRUE(protocol.Claim(id));
  ASSERT_TRUE(protocol.Flip(id, /*labels=*/1, /*now=*/0).barrier_armed);

  TupleBatchStorage* data = pool.Acquire();
  data->tuples.push_back(Tuple{});
  ASSERT_TRUE(channel.Push(data));
  TupleBatchStorage* marker = pool.Acquire();
  marker->label_id = id;
  ASSERT_TRUE(channel.Push(marker));
  channel.CloseProducer();  // A done.
  channel.CloseProducer();  // B closes without a marker.

  bool complete = false;
  int batches = 0;
  for (;;) {
    TupleBatchStorage* batch = channel.Pop();
    if (batch == nullptr) {
      ASSERT_TRUE(channel.exhausted());
      break;
    }
    if (batch->label_id >= 0) {
      complete = protocol.OnLabel(batch->label_id, /*now=*/0);
    } else {
      ++batches;
    }
    pool.Release(batch);
  }
  EXPECT_TRUE(complete);
  EXPECT_EQ(batches, 1);
  EXPECT_NE(protocol.TryFinalize(id, /*source_quiescent=*/false), nullptr);
}

// ---------------------------------------------------------------------------
// Resource-control plane units: config shape, telemetry clock, affinity shim.
// ---------------------------------------------------------------------------

TEST(MpscChannelTest, AddProducerKeepsChannelOpenAcrossOriginalClose) {
  // GrowWorkers registers a grown worker on live downstream channels; the
  // channel must not read as exhausted until EVERY producer — original and
  // added — has closed.
  MpscChannel channel(/*capacity=*/2, /*producers=*/1);
  channel.AddProducer();
  channel.CloseProducer();
  EXPECT_FALSE(channel.exhausted());
  channel.CloseProducer();
  EXPECT_TRUE(channel.exhausted());
}

TEST(CycleClockTest, TicksAdvanceAndConvertToPlausibleNs) {
  const uint64_t t0 = exec::CycleClock::Now();
  // Busy-wait a hair so even a coarse fallback clock moves.
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const uint64_t t1 = exec::CycleClock::Now();
  EXPECT_GT(t1, t0);
  EXPECT_GT(exec::CycleClock::NsPerTick(), 0.0);
  const int64_t ns = exec::CycleClock::ToNs(static_cast<int64_t>(t1 - t0));
  EXPECT_GT(ns, 0);
  EXPECT_LT(ns, Seconds(10));  // A spin of 1e5 adds is nowhere near 10 s.
}

// ---------------------------------------------------------------------------
// Native telemetry contract: what a worker's busy time and the runtime's
// sink latency measure now that each costs one clock read per tuple.
// ---------------------------------------------------------------------------

// One source thread feeding one worker thread (the sink) of the micro
// topology; tests wrap the source factory or replace the operator logic.
MicroWorkload OneWorkerWorkload(int64_t max_tuples) {
  MicroOptions options;
  options.num_keys = 64;
  options.generator_executors = 1;
  options.calculator_executors = 1;
  options.shards_per_executor = 4;
  options.shard_state_bytes = 1024;
  MicroWorkload workload = BuildMicroWorkload(options, /*seed=*/5).value();
  workload.topology.mutable_spec(workload.generator).source.max_tuples =
      max_tuples;
  return workload;
}

EngineConfig OneWorkerConfig() {
  EngineConfig config;
  config.paradigm = Paradigm::kStatic;
  config.backend = exec::BackendKind::kNative;
  config.num_nodes = 1;
  config.cores_per_node = 4;
  config.native.workers_per_operator = 1;
  config.native.data_path.batch_tuples = 64;
  return config;
}

TEST(NativeTelemetryTest, IdleWorkerAccruesNoBusyTime) {
  // One batch, then 100 ms with the source held at a gate, then a second
  // batch. The idle wait counts nowhere: not while it lasts, and not on
  // the next batch's first tuple (whose window must open at its own
  // batch, not at the previous batch's last tick).
  constexpr int kBatch = 64;
  MicroWorkload workload = OneWorkerWorkload(2 * kBatch);
  auto gate = std::make_shared<std::atomic<bool>>(false);
  auto made = std::make_shared<std::atomic<int>>(0);
  SourceSpec& source =
      workload.topology.mutable_spec(workload.generator).source;
  source.factory = [inner = source.factory, gate, made](Rng* rng,
                                                        SimTime now) {
    if (made->fetch_add(1) == kBatch) {
      while (!gate->load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return inner(rng, now);
  };
  Engine engine(workload.topology, OneWorkerConfig());
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();
  while (engine.SampleTelemetry().total_processed < kBatch) {
    engine.RunFor(Millis(1));
  }
  engine.RunFor(Millis(5));  // The worker publishes, then parks.
  const int64_t busy_before = engine.SampleTelemetry().total_busy_ns;
  engine.RunFor(Millis(100));
  const int64_t busy_idle =
      engine.SampleTelemetry().total_busy_ns - busy_before;
  gate->store(true);
  engine.RunToCompletion();
  const exec::TelemetrySnapshot end = engine.SampleTelemetry();
  EXPECT_EQ(end.total_processed, 2 * kBatch);
  EXPECT_EQ(busy_idle, 0);
  EXPECT_GT(end.total_busy_ns, busy_before);
  EXPECT_LT(end.total_busy_ns - busy_before, Millis(20))
      << "the second batch was charged for the idle wait";
}

TEST(NativeTelemetryTest, BatchBusyLiesBetweenLogicTimeAndWallSpan) {
  // One batch of tuples whose logic spins 20 us each. The worker's busy
  // windows tile the batch from its clock anchor to the last tuple's
  // closing tick, so they cover every logic call (plus the per-tuple
  // bookkeeping) and fit inside the run's wall span.
  constexpr int kBatch = 64;
  MicroWorkload workload = OneWorkerWorkload(kBatch);
  auto logic_ns = std::make_shared<int64_t>(0);  // Worker thread only.
  workload.topology.mutable_spec(workload.calculator).logic =
      [logic_ns](const Tuple&, StateAccessor& state, EmitContext*) {
        const auto entry = std::chrono::steady_clock::now();
        ++*state.GetOrCreate<int64_t>();
        SpinFor(std::chrono::microseconds(20));
        *logic_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - entry)
                         .count();
      };
  Engine engine(workload.topology, OneWorkerConfig());
  ASSERT_TRUE(engine.Setup().ok());
  const auto start = std::chrono::steady_clock::now();
  engine.Start();
  engine.RunToCompletion();
  const int64_t wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  const exec::TelemetrySnapshot snap = engine.SampleTelemetry();
  ASSERT_EQ(snap.total_processed, kBatch);
  // 2% slack for the cycle counter's calibration against steady_clock.
  EXPECT_GE(static_cast<double>(snap.total_busy_ns),
            0.98 * static_cast<double>(*logic_ns));
  EXPECT_LE(snap.total_busy_ns, wall_ns);
}

TEST(NativeTelemetryTest, AnchoredSinkLatencyMatchesSteadyClock) {
  // The runtime's sink latency derives each tuple's completion time from
  // the busy window's closing tick through the batch's now()/tick anchor.
  // The logic reads the backend clock itself just before returning; the
  // two latencies must agree to within a few us on average. Each tuple
  // spins 2 us so a batch spans ~130 us: stamping every tuple with its
  // batch's anchor time instead would be off by tens of us.
  constexpr int kTuples = 20000;
  MicroWorkload workload = OneWorkerWorkload(kTuples);
  auto clock = std::make_shared<exec::ExecutionBackend*>(nullptr);
  auto latency_sum = std::make_shared<int64_t>(0);  // Worker thread only.
  workload.topology.mutable_spec(workload.calculator).logic =
      [clock, latency_sum](const Tuple& t, StateAccessor& state,
                           EmitContext*) {
        ++*state.GetOrCreate<int64_t>();
        SpinFor(std::chrono::microseconds(2));
        *latency_sum += (*clock)->now() - t.created_at;
      };
  Engine engine(workload.topology, OneWorkerConfig());
  *clock = engine.exec();
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();
  engine.RunToCompletion();
  const Histogram& latency = engine.LatencyHistogram();
  ASSERT_EQ(latency.count(), kTuples);
  const double logic_mean =
      static_cast<double>(*latency_sum) / static_cast<double>(kTuples);
  EXPECT_NEAR(latency.mean(), logic_mean, 3000.0);
}

}  // namespace
}  // namespace elasticutor
