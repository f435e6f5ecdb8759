#include "sim/event_queue.h"

#include <utility>

#include "common/status.h"

namespace elasticutor {

EventQueue::EventQueue() {
  lane_delay_.fill(kNoDelay);
  recent_misses_.fill(Miss{kNoDelay, 0});
}

void EventQueue::Lane::PushBack(const Key& key) {
  if (size == ring.size()) {
    std::vector<Key> grown(ring.empty() ? 64 : ring.size() * 2);
    for (uint32_t i = 0; i < size; ++i) {
      grown[i] = ring[(head + i) & (ring.size() - 1)];
    }
    ring.swap(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = key;
  ++size;
}

uint32_t EventQueue::AllocSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slab_size_ == chunks_.size() * kChunkSlots) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return slab_size_++;
}

void EventQueue::Release(uint32_t slot) {
  SlotAt(slot).fn = nullptr;
  free_slots_.push_back(slot);
}

int EventQueue::LaneFor(SimDuration delay) {
  for (int i = 0; i < kLanes; ++i) {
    if (lane_delay_[i] == delay) return i;
  }
  return ClaimLane(delay);
}

int EventQueue::ClaimLane(SimDuration delay) {
  Miss& seen =
      recent_misses_[(static_cast<uint64_t>(delay) * 0x9E3779B97F4A7C15ull) >>
                     (64 - kMissBits)];
  if (seen.delay != delay) {
    seen = Miss{delay, 1};
    return kNone;
  }
  if (++seen.count < kClaimAfterMisses) return kNone;
  for (int i = 0; i < kLanes; ++i) {
    if (lanes_[i].empty()) {
      lane_delay_[i] = delay;
      return i;
    }
  }
  return kNone;
}

EventId EventQueue::Push(SimTime time, EventFn&& fn) {
  const uint32_t slot = AllocSlot();
  Slot& s = SlotAt(slot);
  s.fn = std::move(fn);
  const Key key{time, next_seq_++, slot, s.gen};
  ++live_;
  const int lane = LaneFor(time - now_);
  if (lane != kNone &&
      (lanes_[lane].empty() || lanes_[lane].back().time <= time)) {
    lanes_[lane].PushBack(key);
  } else {
    heap_.push_back(key);
    SiftUp(heap_.size() - 1);
    ++heap_pushes_;
  }
  return MakeId(slot, s.gen);
}

bool EventQueue::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= slab_size_) return false;
  Slot& s = SlotAt(slot);
  if (s.gen != gen) return false;  // Already executed or cancelled.
  ++s.gen;  // Its heap or lane entry goes stale.
  --live_;
  Release(slot);  // The callback dies now.
  return true;
}

void EventQueue::SiftUp(size_t i) const {
  Key entry = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / kArity;
    if (!Before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::SiftDown(size_t i) const {
  const size_t n = heap_.size();
  Key entry = heap_[i];
  while (true) {
    size_t first = i * kArity + 1;
    if (first >= n) break;
    size_t best = first;
    size_t last = first + kArity < n ? first + kArity : n;
    for (size_t c = first + 1; c < last; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

void EventQueue::PopFrontOf(int source) const {
  if (source != kHeap) {
    lanes_[source].PopFront();
    return;
  }
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

int EventQueue::FrontSource() const {
  while (true) {
    int best = heap_.empty() ? kNone : kHeap;
    const Key* best_key = heap_.empty() ? nullptr : &heap_.front();
    for (int i = 0; i < kLanes; ++i) {
      const Lane& lane = lanes_[i];
      if (lane.empty()) continue;
      if (best_key == nullptr || Before(lane.front(), *best_key)) {
        best = i;
        best_key = &lane.front();
      }
    }
    if (best == kNone || Live(*best_key)) return best;
    PopFrontOf(best);  // Cancelled: drop it, once.
  }
}

bool EventQueue::Next(SimTime until, Ready* ready) {
  const int source = FrontSource();
  if (source == kNone) return false;
  const Key key = FrontOf(source);
  if (key.time > until) return false;
  PopFrontOf(source);
  ++SlotAt(key.slot).gen;  // The id dies before the callback runs.
  --live_;
  now_ = key.time;
  *ready = Ready{key.time, MakeId(key.slot, key.gen)};
  return true;
}

void EventQueue::RunAndRelease(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id);
  SlotAt(slot).fn();  // Chunks never move, so the slot outlives pushes.
  Release(slot);
}

SimTime EventQueue::PeekTime() const {
  const int source = FrontSource();
  return source == kNone ? kSimTimeMax : FrontOf(source).time;
}

EventQueue::Entry EventQueue::Pop() {
  Ready ready;
  const bool found = Next(kSimTimeMax, &ready);
  ELASTICUTOR_CHECK_MSG(found, "Pop on empty event queue");
  const uint32_t slot = static_cast<uint32_t>(ready.id);
  Entry entry{ready.time, ready.id, std::move(SlotAt(slot).fn)};
  Release(slot);
  return entry;
}

}  // namespace elasticutor
