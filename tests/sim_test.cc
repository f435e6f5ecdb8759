// Unit tests for the discrete-event simulator: ordering, determinism,
// cancellation, periodic processes, the inline callback type, in-place
// execution, and randomized event-queue stress tests (heap alone, and
// constant-delay lanes plus heap) against a multimap reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_fn.h"
#include "sim/event_queue.h"
#include "exec/sim_backend.h"

namespace elasticutor {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&]() { order.push_back(3); });
  q.Push(10, [&]() { order.push_back(1); });
  q.Push(20, [&]() { order.push_back(2); });
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SimultaneousEventsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5, [&order, i]() { order.push_back(i); });
  }
  while (!q.empty()) q.Pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelSkipsEvent) {
  EventQueue q;
  bool ran = false;
  EventId id = q.Push(10, [&]() { ran = true; });
  q.Push(20, []() {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_EQ(q.PeekTime(), 20);
  while (!q.empty()) q.Pop().fn();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelReportsLiveness) {
  EventQueue q;
  EventId id = q.Push(10, []() {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id)) << "double cancel must report failure";
  EXPECT_FALSE(q.Cancel(9999)) << "unknown id must report failure";

  EventId executed = q.Push(5, []() {});
  while (!q.empty()) q.Pop().fn();
  EXPECT_FALSE(q.Cancel(executed)) << "cancelling an executed event is a "
                                      "no-op that reports failure";
}

TEST(EventQueueTest, CancelDoesNotHitRecycledSlot) {
  // Slots are recycled through a free list; an id issued for an executed
  // event must not cancel whatever event reuses its slot later.
  EventQueue q;
  int fired = 0;
  EventId old_id = q.Push(10, [&]() { ++fired; });
  q.Pop().fn();  // Executes and frees the slot.
  EventId fresh = q.Push(20, [&]() { ++fired; });
  EXPECT_FALSE(q.Cancel(old_id)) << "stale id must not cancel a reused slot";
  EXPECT_EQ(q.PeekTime(), 20);
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(q.Cancel(fresh));
}

TEST(EventQueueTest, ConstAccessorsSkipCancelled) {
  EventQueue q;
  EventId a = q.Push(10, []() {});
  q.Push(30, []() {});
  ASSERT_TRUE(q.Cancel(a));
  const EventQueue& cq = q;  // empty()/PeekTime() are logically const.
  EXPECT_FALSE(cq.empty());
  EXPECT_EQ(cq.PeekTime(), 30);
  EXPECT_EQ(cq.live_size(), 1u);
}

TEST(EventQueueTest, RandomizedStressMatchesMultimapModel) {
  // Reference model: a multimap ordered by (time, push sequence) plus a
  // liveness map, driven through a seeded interleaving of push/pop/cancel.
  EventQueue q;
  std::multimap<std::pair<SimTime, uint64_t>, int> model;  // -> tag.
  std::map<EventId,
           std::multimap<std::pair<SimTime, uint64_t>, int>::iterator>
      live;
  std::vector<EventId> issued;
  std::mt19937_64 rng(20260728);
  uint64_t seq = 0;
  int next_tag = 0;
  int last_fired = -1;

  for (int step = 0; step < 20000; ++step) {
    int op = static_cast<int>(rng() % 10);
    if (op < 5 || model.empty()) {  // Push.
      SimTime time = static_cast<SimTime>(rng() % 1000);
      int tag = next_tag++;
      EventId id = q.Push(time, [&last_fired, tag]() { last_fired = tag; });
      auto it = model.emplace(std::make_pair(time, seq++), tag);
      ASSERT_TRUE(live.emplace(id, it).second) << "duplicate live id";
      issued.push_back(id);
    } else if (op < 8) {  // Pop.
      ASSERT_FALSE(q.empty());
      ASSERT_EQ(q.PeekTime(), model.begin()->first.first);
      EventQueue::Entry entry = q.Pop();
      entry.fn();
      ASSERT_EQ(last_fired, model.begin()->second)
          << "pop order diverged from the reference model";
      ASSERT_EQ(entry.time, model.begin()->first.first);
      ASSERT_EQ(live.count(entry.id), 1u);
      live.erase(entry.id);
      model.erase(model.begin());
    } else if (!issued.empty()) {  // Cancel a random (possibly dead) id.
      EventId id = issued[rng() % issued.size()];
      auto it = live.find(id);
      bool expect_live = it != live.end();
      ASSERT_EQ(q.Cancel(id), expect_live);
      if (expect_live) {
        model.erase(it->second);
        live.erase(it);
      }
    }
    ASSERT_EQ(q.live_size(), model.size());
  }
  while (!model.empty()) {
    ASSERT_FALSE(q.empty());
    EventQueue::Entry entry = q.Pop();
    entry.fn();
    ASSERT_EQ(last_fired, model.begin()->second);
    model.erase(model.begin());
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, LaneStressMatchesMultimapModel) {
  // Pushes mostly at now + d for a few repeated delays, so lanes are
  // claimed and appended to; the rest are random delays and, rarely,
  // absolute times below now (legal at this layer), which pull now
  // backwards so later repeated-delay pushes land below a lane's tail and
  // must take the heap.
  // Cancels hit random ids and, often, the earliest live event, i.e. a
  // lane or heap front. Every pop is checked against a (time, seq) model.
  using Model = std::multimap<std::pair<SimTime, uint64_t>, EventId>;
  EventQueue q;
  Model model;  // -> id.
  std::map<EventId, Model::iterator> live;
  std::vector<EventId> issued;
  std::mt19937_64 rng(20261019);
  const std::array<SimDuration, 5> kDelays = {0, 5, 40, 300, 7000};
  SimTime now = 0;  // Time of the last event taken, as the queue sees it.
  uint64_t seq = 0;
  uint64_t pushes = 0;
  EventId last_fired = 0;

  auto pop_check = [&](EventQueue::Ready ready) {
    ASSERT_FALSE(model.empty());
    ASSERT_EQ(ready.time, model.begin()->first.first);
    ASSERT_EQ(ready.id, model.begin()->second)
        << "pop order diverged from the reference model";
    EXPECT_FALSE(q.Cancel(ready.id)) << "a taken event is no longer live";
    q.RunAndRelease(ready.id);
    ASSERT_EQ(last_fired, ready.id);
    live.erase(ready.id);
    model.erase(model.begin());
    now = ready.time;
  };

  for (int step = 0; step < 40000; ++step) {
    const int op = static_cast<int>(rng() % 20);
    if (op < 8 || model.empty()) {  // Push.
      SimTime time;
      const int kind = static_cast<int>(rng() % 250);
      if (kind < 175) {
        time = now + kDelays[rng() % kDelays.size()];
      } else if (kind < 248) {
        time = now + static_cast<SimDuration>(rng() % 1000);
      } else {
        time = std::max<SimTime>(0, now - static_cast<SimDuration>(
                                              rng() % 60));
      }
      auto fire = std::make_shared<EventId>(0);
      EventId id = q.Push(time, [&last_fired, fire]() { last_fired = *fire; });
      *fire = id;
      ++pushes;
      auto it = model.emplace(std::make_pair(time, seq++), id);
      ASSERT_TRUE(live.emplace(id, it).second) << "duplicate live id";
      issued.push_back(id);
    } else if (op < 15) {  // Take the next event due by a random horizon.
      const SimTime until = now + static_cast<SimDuration>(rng() % 200);
      EventQueue::Ready ready;
      const bool due =
          !model.empty() && model.begin()->first.first <= until;
      ASSERT_EQ(q.Next(until, &ready), due);
      if (due) pop_check(ready);
    } else if (op < 17) {  // Cancel the front, often a lane head.
      auto front = model.begin();
      ASSERT_TRUE(q.Cancel(front->second));
      live.erase(front->second);
      model.erase(front);
    } else {  // Cancel a random (possibly dead) id.
      EventId id = issued[rng() % issued.size()];
      auto it = live.find(id);
      const bool expect_live = it != live.end();
      ASSERT_EQ(q.Cancel(id), expect_live);
      if (expect_live) {
        model.erase(it->second);
        live.erase(it);
      }
    }
    ASSERT_EQ(q.live_size(), model.size());
    ASSERT_EQ(q.PeekTime(),
              model.empty() ? kSimTimeMax : model.begin()->first.first);
  }
  while (!model.empty()) {
    EventQueue::Ready ready;
    ASSERT_TRUE(q.Next(kSimTimeMax, &ready));
    pop_check(ready);
  }
  EXPECT_TRUE(q.empty());
  // The lanes did carry the repeated delays: most pushes skipped the heap.
  EXPECT_LT(q.heap_pushes() * 2, pushes);
  EXPECT_GT(q.heap_pushes(), 0u);
}

TEST(EventFnTest, SmallClosuresStayInline) {
  int64_t before = EventFn::heap_allocations();
  int hits = 0;
  EventFn fn([&hits]() { ++hits; });
  EXPECT_FALSE(fn.on_heap());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(EventFn::heap_allocations(), before);
}

TEST(EventFnTest, TupleSizedCapturesStayInline) {
  // The hot-path closures capture a 64-byte Tuple plus a pointer or two;
  // they must never fall back to the heap.
  int64_t before = EventFn::heap_allocations();
  struct {
    std::array<unsigned char, 64> tuple{};
    void* target = nullptr;
    void* extra = nullptr;
  } capture;
  EventFn fn([capture]() { (void)capture; });
  EXPECT_FALSE(fn.on_heap());
  EXPECT_EQ(EventFn::heap_allocations(), before);
}

TEST(EventFnTest, OversizedCapturesFallBackToHeapAndCount) {
  int64_t before = EventFn::heap_allocations();
  std::array<unsigned char, 256> big{};
  big[0] = 7;
  unsigned char seen = 0;
  EventFn fn([big, &seen]() { seen = big[0]; });
  EXPECT_TRUE(fn.on_heap());
  EXPECT_EQ(EventFn::heap_allocations(), before + 1);
  EventFn moved = std::move(fn);  // Pointer transfer: no new allocation.
  EXPECT_EQ(EventFn::heap_allocations(), before + 1);
  moved();
  EXPECT_EQ(seen, 7);
}

TEST(EventFnTest, MoveAndNullSemantics) {
  int calls = 0;
  EventFn a([&calls]() { ++calls; });
  EXPECT_TRUE(static_cast<bool>(a));
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(calls, 1);
  b = nullptr;
  EXPECT_FALSE(static_cast<bool>(b));
  EventFn empty;
  EXPECT_FALSE(static_cast<bool>(empty));
}

TEST(SimulatorTest, CancelReturnsWhetherEventWasPending) {
  exec::SimBackend sim;
  int fired = 0;
  EventId id = sim.At(10, [&]() { ++fired; });
  sim.At(20, [&]() { ++fired; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunAll();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  exec::SimBackend sim;
  int fired = 0;
  sim.At(10, [&]() { ++fired; });
  sim.At(20, [&]() { ++fired; });
  sim.At(30, [&]() { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);  // Events at exactly `until` run.
  EXPECT_EQ(sim.now(), 20);
  sim.RunUntil(100);
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  exec::SimBackend sim;
  SimTime seen = -1;
  sim.At(100, [&]() {
    sim.After(50, [&]() { seen = sim.now(); });
  });
  sim.RunAll();
  EXPECT_EQ(seen, 150);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  exec::SimBackend sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) sim.After(10, recurse);
  };
  sim.After(0, recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(SimulatorTest, PeriodicFiresUntilStopped) {
  exec::SimBackend sim;
  int count = 0;
  sim.Periodic(10, 10, [&](SimTime) { return ++count < 4; });
  sim.RunUntil(1000);
  EXPECT_EQ(count, 4);
}

TEST(SimulatorTest, PeriodicTimesAreExact) {
  exec::SimBackend sim;
  std::vector<SimTime> times;
  sim.Periodic(5, 7, [&](SimTime t) {
    times.push_back(t);
    return times.size() < 3;
  });
  sim.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{5, 12, 19}));
}

TEST(SimulatorTest, DeterministicEventCount) {
  auto run = []() {
    exec::SimBackend sim;
    int fired = 0;
    for (int i = 0; i < 100; ++i) {
      sim.After(i * 3 % 17, [&]() { ++fired; });
    }
    sim.RunAll();
    return sim.events_executed();
  };
  EXPECT_EQ(run(), run());
}

TEST(SimulatorTest, CallbackRunsInPlaceWhileItSchedulesAndCancelsItself) {
  // The running callback stays in its slab slot: scheduling more events
  // than one slab chunk holds (the slab grows mid-call) must neither move
  // nor reuse that slot, so its captures stay intact, and its own id is
  // already dead. ASan turns a moved or recycled slot into a hard failure.
  exec::SimBackend sim;
  constexpr int kScheduled = 1000;  // Several slab chunks.
  auto self = std::make_shared<EventId>(0);
  std::vector<int> payload = {7, 8, 9};
  std::vector<int> fired;
  bool ran = false;
  *self = sim.At(10, [&sim, &fired, &ran, self, payload]() {
    for (int i = 0; i < kScheduled; ++i) {
      sim.After(i % 3, [&fired, i]() { fired.push_back(i); });
    }
    EXPECT_FALSE(sim.Cancel(*self)) << "the running event is not pending";
    EXPECT_EQ(payload, (std::vector<int>{7, 8, 9}));
    ran = true;
  });
  sim.RunAll();
  ASSERT_TRUE(ran);
  ASSERT_EQ(fired.size(), static_cast<size_t>(kScheduled));
  // (time, seq) order: by delay class first, push order within it.
  std::vector<int> expected;
  for (int d = 0; d < 3; ++d) {
    for (int i = d; i < kScheduled; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.events_executed(), static_cast<uint64_t>(kScheduled + 1));
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  exec::SimBackend sim;
  sim.RunUntil(500);
  EXPECT_EQ(sim.now(), 500);
}

}  // namespace
}  // namespace elasticutor
