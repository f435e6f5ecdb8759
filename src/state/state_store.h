// Per-process shard state store — the "lightweight in-memory key-value
// store" of §3.2. Each elastic-executor process (main or remote) owns one
// ProcessStateStore; tasks in the same process share it, so reassigning a
// shard between two tasks of the same process needs no state migration
// (intra-process state sharing). Cross-process reassignment is driven by the
// MigrationEngine (state/migration_engine.h), which extracts the shard here,
// ships it (as one blob or as live pre-copied chunks) and installs it at the
// destination store.
//
// State has two components per shard:
//  * base_bytes — the configured synthetic shard payload (the paper's "shard
//    state size", 32 KB by default), representing opaque operator state;
//  * user entries — real typed per-key values operator logic reads/writes
//    through StateAccessor (e.g. the SSE order books), with an estimated
//    byte footprint that contributes to migration cost.
//
// Layout: every tuple makes one lookup in each of two flat tables. The
// store keeps its ShardStates inline in an open-addressed table, one
// 64-byte slot per shard; a shard keeps its entries in a dense vector,
// indexed by a second open-addressed table once it holds more than
// StateEntries::kLinearScanMax keys. Both tables use a multiplicative hash
// and linear probing, so a lookup that hits touches the shard's slot, its
// entry vector (plus the index slot for a large shard) and the value.
// Because the tables move what they hold, pointers into them carry a
// validity contract (see ProcessStateStore).
#pragma once

#include <any>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"

namespace elasticutor {

using ShardId = int32_t;
using StateKey = uint64_t;

namespace internal {
/// Home slot of `x` in a power-of-two table whose index mask is `mask`
/// (at least 1): multiplicative hashing, keeping the product's top bits.
inline size_t HomeSlot(uint64_t x, size_t mask) {
  return static_cast<size_t>((x * 0x9E3779B97F4A7C15ull) >>
                             std::countl_zero(mask));
}
}  // namespace internal

/// Records the keys and bytes written to a shard while its pre-copy is in
/// flight; the MigrationEngine ships exactly this delta during the final
/// paused window of a chunked-live migration.
class DirtyTracker {
 public:
  /// A (potential) write to `key`'s entry of roughly `approx_bytes` bytes.
  /// Re-touching a key does not grow the delta (the delta ships each dirty
  /// entry once).
  void OnWrite(StateKey key, int64_t approx_bytes) {
    if (keys_.insert(key).second) bytes_ += approx_bytes;
    ++writes_;
  }

  /// In-place growth of an already-dirty entry (e.g. an order book gaining a
  /// resting order): the extra bytes must be shipped too.
  void OnGrow(int64_t delta) { bytes_ += delta; }

  int64_t dirty_bytes() const { return bytes_; }
  size_t dirty_keys() const { return keys_.size(); }
  int64_t writes() const { return writes_; }

 private:
  std::unordered_set<StateKey> keys_;
  int64_t bytes_ = 0;
  int64_t writes_ = 0;
};

/// A shard's typed per-key user entries: a dense vector of (key, value)
/// pairs in insertion order, plus an open-addressed index of positions into
/// it once the shard holds more than kLinearScanMax keys (below that a
/// lookup scans the vector). Entries are only ever added; a shard loses its
/// entries only by moving as a whole. Iterates like a map:
/// `for (const auto& [key, value] : shard.entries)`.
class StateEntries {
 public:
  using value_type = std::pair<StateKey, std::any>;
  using const_iterator = std::vector<value_type>::const_iterator;

  /// Largest shard looked up by a linear scan (no index kept).
  static constexpr size_t kLinearScanMax = 8;

  size_t size() const { return items_.size(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

  /// The value stored under `key`, or null.
  std::any* Find(StateKey key) {
    const size_t n = items_.size();
    if (n <= kLinearScanMax) {
      for (value_type& item : items_) {
        if (item.first == key) return &item.second;
      }
      return nullptr;
    }
    const size_t mask = IndexMask(n);
    for (size_t i = internal::HomeSlot(key, mask);; i = (i + 1) & mask) {
      const uint32_t pos = index_[i];
      if (pos == 0) return nullptr;
      if (items_[pos - 1].first == key) return &items_[pos - 1].second;
    }
  }

  /// Adds `key` (which must be absent) and returns its value.
  std::any* Insert(StateKey key, std::any value);

 private:
  /// Index slots for `n` entries: none up to kLinearScanMax, then the power
  /// of two that keeps the index at most half full. A function of size()
  /// alone, so the entries carry no capacity field.
  static size_t IndexSize(size_t n) {
    return n <= kLinearScanMax ? 0 : IndexMask(n) + 1;
  }
  /// IndexSize(n) - 1 for n > kLinearScanMax: bit_ceil(2n) - 1.
  static size_t IndexMask(size_t n) {
    return ~size_t{0} >> std::countl_zero(2 * n - 1);
  }
  /// Records items_[pos] in the index (which has a free slot).
  void Link(uint32_t pos);

  std::vector<value_type> items_;
  /// IndexSize(size()) slots, each the position + 1 of the item hashed
  /// there or 0 if free; null while size() <= kLinearScanMax. A bare array
  /// (8 bytes, not a vector's 24) keeps a store slot at one cache line.
  std::unique_ptr<uint32_t[]> index_;
};

/// One shard's state: opaque payload plus typed per-key user entries.
/// Move-only: a shard blob is extracted and installed exactly once per
/// migration, and an accidental deep copy would silently double the state a
/// migration appears to ship.
struct ShardState {
  ShardState() = default;
  ShardState(const ShardState&) = delete;
  ShardState& operator=(const ShardState&) = delete;
  ShardState(ShardState&&) = default;
  ShardState& operator=(ShardState&&) = default;

  int64_t base_bytes = 0;
  int64_t user_bytes = 0;
  StateEntries entries;

  /// Non-owning write observer, attached by the MigrationEngine for the
  /// duration of a live pre-copy (null otherwise). Not part of the migrated
  /// payload; cleared before the blob is installed at the destination.
  DirtyTracker* dirty = nullptr;

  int64_t bytes() const { return base_bytes + user_bytes; }
};

/// The shards of one process, kept inline in an open-addressed table
/// (power-of-two capacity, multiplicative hash of the id, linear probing,
/// at most half full; extraction backward-shifts the probe chain).
///
/// Pointer contract: a ShardState* from GetShard stays valid until the next
/// CreateShard, InstallShard or ExtractShard on the same store (any of them
/// may move every shard). A T* from StateAccessor::GetOrCreate stays valid
/// until the next new key in the same shard. Callers hold neither across
/// such a call: the data path builds one StateAccessor per tuple and its
/// operator logic fetches one key; MigrationEngine::Begin uses its
/// ShardState* only to attach the tracker; the native runtime's staging
/// stores hold one shard each, installed and later extracted by value.
class ProcessStateStore {
 public:
  ProcessStateStore() = default;

  /// Creates an empty shard with the given opaque payload size. Fails if the
  /// shard already exists.
  Status CreateShard(ShardId shard, int64_t base_bytes);

  bool HasShard(ShardId shard) const { return Find(shard) != nullptr; }

  /// Removes and returns a shard blob for migration (moved out, never
  /// copied).
  Result<ShardState> ExtractShard(ShardId shard);

  /// Installs a migrated shard blob. Fails if the shard already exists.
  Status InstallShard(ShardId shard, ShardState state);

  /// Size in bytes of one shard (0 if absent).
  int64_t ShardBytes(ShardId shard) const {
    const Slot* slot = Find(shard);
    return slot == nullptr ? 0 : slot->state.bytes();
  }

  /// Total bytes across all shards in this process.
  int64_t TotalBytes() const;

  size_t num_shards() const { return size_; }

  /// Mutable access for StateAccessor; shard must exist.
  ShardState* GetShard(ShardId shard) {
    const Slot* slot = Find(shard);
    ELASTICUTOR_CHECK_MSG(slot != nullptr,
                          "state access to absent shard (routing bug?)");
    return const_cast<ShardState*>(&slot->state);
  }

  /// Read-only iteration over every shard in this store, in no particular
  /// order (equivalence tests compare per-key entries across backends;
  /// diagnostics dump state sizes).
  template <typename Fn>
  void ForEachShard(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.id != kNoShard) fn(slot.id, slot.state);
    }
  }

 private:
  /// Marks a free slot; never a valid shard id.
  static constexpr ShardId kNoShard = std::numeric_limits<ShardId>::min();
  /// First table size: up to 16 shards without a regrow. A regrow moves
  /// every shard and costs more than the first allocation; 16 shards per
  /// worker is the native runtime's common shape.
  static constexpr size_t kMinSlots = 32;

  /// One cache line per shard (a ShardState is 56 bytes on LP64): a lookup
  /// that hits on its home slot touches no other line of the table.
  struct alignas(64) Slot {
    ShardId id = kNoShard;
    ShardState state;
  };

  static size_t Home(ShardId shard, size_t mask) {
    return internal::HomeSlot(static_cast<uint32_t>(shard), mask);
  }

  const Slot* Find(ShardId shard) const {
    if (size_ == 0) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(shard, mask);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id == shard) return &slot;
      if (slot.id == kNoShard) return nullptr;
    }
  }

  Status Insert(ShardId shard, ShardState state);
  /// Places a shard known to be absent (the table has a free slot).
  void Place(ShardId shard, ShardState state);

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// Handle through which operator logic reads and updates the state of the
/// key it is currently processing ("state access interface ... on a per-key
/// basis", §3.2). Writes are observed by the shard's DirtyTracker when a
/// live migration is pre-copying the shard.
class StateAccessor {
 public:
  StateAccessor(ProcessStateStore* store, ShardId shard, StateKey key)
      : shard_state_(store->GetShard(shard)), key_(key) {}

  /// Returns the typed state for the current key, default-constructing it on
  /// first access; the pointer is valid until the shard's next new key.
  /// `approx_bytes` feeds the migration-cost estimate. Counts as a write for
  /// dirty tracking: callers receive a mutable pointer, and stream operators
  /// overwhelmingly update the entry they fetch.
  template <typename T>
  T* GetOrCreate(int64_t approx_bytes = static_cast<int64_t>(sizeof(T))) {
    std::any* slot = shard_state_->entries.Find(key_);
    if (slot == nullptr) {
      slot = shard_state_->entries.Insert(key_, T{});
      shard_state_->user_bytes += approx_bytes + kEntryOverheadBytes;
    }
    if (shard_state_->dirty) {
      shard_state_->dirty->OnWrite(key_, approx_bytes + kEntryOverheadBytes);
    }
    T* value = std::any_cast<T>(slot);
    ELASTICUTOR_CHECK_MSG(value != nullptr, "state type mismatch for key");
    return value;
  }

  /// Records growth of the current key's state (e.g. an order book gaining
  /// a resting order).
  void AddBytes(int64_t delta) {
    shard_state_->user_bytes += delta;
    if (shard_state_->dirty) shard_state_->dirty->OnGrow(delta);
  }

  StateKey key() const { return key_; }

  static constexpr int64_t kEntryOverheadBytes = 48;

 private:
  ShardState* shard_state_;
  StateKey key_;
};

}  // namespace elasticutor
