// Pending-event set of the discrete-event simulator: a few DELAY-CLASS FIFO
// LANES in front of a 4-ary INDEX HEAP, with the fat EventFn callbacks kept
// still in a slab.
//
// Most events are pushed at `now + d` for a constant d (a spout's generation
// tick, a link's latency, a fixed service time). Each lane is a ring buffer
// tied to one such delay: a push whose delay d = time - now matches a lane,
// and whose time is not below that lane's tail, is appended in O(1); every
// other push goes to the heap. A delay that misses four times in a row (in
// its slot of a small table of recent misses) claims an empty lane; which
// delays hold lanes changes only the hit rate, never the order.
//
// Firing order is (time, seq), seq being the monotone push sequence, so
// simultaneous events fire in schedule order and runs stay deterministic:
//   1. seq only grows, so a lane that appends only times >= its tail is
//      sorted by (time, seq);
//   2. the heap yields its entries in (time, seq) order;
//   3. taking the smaller (time, seq) head of these sorted sources each time
//      is a merge, which yields the one total (time, seq) order.
//
// Event ids encode {slot, generation}. A slot's generation is bumped when its
// event is cancelled or taken to run, so ids of dead events never match
// again; Cancel() is O(1) and its heap or lane entry goes stale in place,
// skipped when it reaches the front.
//
// Slot lifetime (in-place execution): the slab grows in fixed-size chunks
// and never moves a slot, so the simulator runs each callback where Push()
// stored it. Next() bumps the slot's generation before the call (Cancel of
// the running event returns false); RunAndRelease() returns the slot to the
// free list only after the callback returns, so events the callback
// schedules never reuse the slot it is running in.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_fn.h"
#include "sim/time.h"

namespace elasticutor {

using EventId = uint64_t;

class EventQueue {
 public:
  EventQueue();

  /// Adds an event; returns an id usable with Cancel(). The callback is
  /// moved once, into its slot.
  EventId Push(SimTime time, EventFn&& fn);

  /// Cancels a pending event in O(1): the callback is destroyed and its
  /// slot recycled immediately; its heap or lane entry is skipped lazily.
  /// Returns false if the id was already executed (or is executing) or
  /// cancelled, true when a live pending event was cancelled.
  bool Cancel(EventId id);

  /// The earliest live event at or before `until`, taken off the queue: its
  /// id is dead (Cancel() returns false) but its callback stays in its slot
  /// until RunAndRelease(). Returns false, leaving the queue as it was
  /// apart from dropped stale entries, when no live event is due.
  struct Ready {
    SimTime time;
    EventId id;
  };
  bool Next(SimTime until, Ready* ready);

  /// Runs the callback of an event returned by Next() in its slot, then
  /// destroys it and frees the slot.
  void RunAndRelease(EventId id);

  bool empty() const { return live_ == 0; }

  /// Time of the earliest live event; kSimTimeMax if empty.
  SimTime PeekTime() const;

  /// Removes and returns the earliest live event, its callback moved out
  /// (tests and micro-benchmarks; the simulator uses Next/RunAndRelease).
  struct Entry {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  Entry Pop();

  /// Live (pending, uncancelled) events.
  size_t live_size() const { return live_; }

  /// Pushes that took the heap rather than a lane, since construction.
  uint64_t heap_pushes() const { return heap_pushes_; }

 private:
  // 4-ary heap layout: shallower than binary (fewer cache lines touched per
  // sift) and the 4 children of node i share one cache line at 24 B/entry.
  static constexpr size_t kArity = 4;
  // Constant-delay classes served in O(1). sim-omega16 has three (spout
  // tick, remote link, same-node link); one more is spare.
  static constexpr int kLanes = 4;
  // Slots per slab chunk (32 KiB at 128 B per slot).
  static constexpr uint32_t kChunkBits = 8;
  static constexpr uint32_t kChunkSlots = 1u << kChunkBits;
  // Recent missed delays remembered for lane claims (direct-mapped), and
  // the misses in a row a delay needs to claim a lane. A delay that only
  // recurs now and then would hold a lane of one or two entries, and every
  // take would pay for merging it without saving a heap sift.
  static constexpr int kMissBits = 4;
  static constexpr uint32_t kClaimAfterMisses = 4;
  // Delay tag of a lane nobody has claimed; no push has this delay.
  static constexpr SimDuration kNoDelay = INT64_MIN;

  struct Key {
    SimTime time;
    uint64_t seq;   // Monotone push order; tie-break for equal times.
    uint32_t slot;  // Index into the slab.
    uint32_t gen;   // Generation the id was issued under.
  };

  // A ring buffer of keys sorted by (time, seq); capacity is a power of two
  // and doubles when full (warm-up only: steady state allocates nothing).
  struct Lane {
    std::vector<Key> ring;
    uint32_t head = 0;  // Index of the front key.
    uint32_t size = 0;

    bool empty() const { return size == 0; }
    const Key& front() const { return ring[head]; }
    const Key& back() const {
      return ring[(head + size - 1) & (ring.size() - 1)];
    }
    void PopFront() {
      head = (head + 1) & (static_cast<uint32_t>(ring.size()) - 1);
      --size;
    }
    void PushBack(const Key& key);
  };

  struct alignas(64) Slot {
    EventFn fn;
    uint32_t gen = 1;  // An id is live iff its generation matches.
  };

  // Where the front key lives: a lane index, or kHeap.
  static constexpr int kHeap = kLanes;
  static constexpr int kNone = -1;

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  static bool Before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  Slot& SlotAt(uint32_t slot) const {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }
  bool Live(const Key& key) const { return SlotAt(key.slot).gen == key.gen; }

  uint32_t AllocSlot();
  void Release(uint32_t slot);
  /// The lane a key with this delay may append to, or kNone.
  int LaneFor(SimDuration delay);
  int ClaimLane(SimDuration delay);

  /// Source of the earliest live key after dropping stale ones off the
  /// fronts, or kNone if no live event is left. Stale keys are dropped only
  /// as they come to the front, each once, so this is logically const.
  int FrontSource() const;
  const Key& FrontOf(int source) const {
    return source == kHeap ? heap_.front() : lanes_[source].front();
  }
  void PopFrontOf(int source) const;

  void SiftUp(size_t i) const;
  void SiftDown(size_t i) const;

  mutable std::vector<Key> heap_;
  mutable std::array<Lane, kLanes> lanes_;
  std::array<SimDuration, kLanes> lane_delay_;
  struct Miss {
    SimDuration delay;
    uint32_t count;  // Misses of `delay` with no other delay in between.
  };
  std::array<Miss, size_t{1} << kMissBits> recent_misses_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_slots_;
  uint32_t slab_size_ = 0;  // Slots ever handed out.
  SimTime now_ = 0;         // Time of the last event taken; lanes key off it.
  uint64_t next_seq_ = 1;
  size_t live_ = 0;
  uint64_t heap_pushes_ = 0;
};

}  // namespace elasticutor
