#include "state/state_store.h"

#include <algorithm>
#include <string>

namespace elasticutor {

std::any* StateEntries::Insert(StateKey key, std::any value) {
  items_.emplace_back(key, std::move(value));
  const size_t n = items_.size();
  const size_t size = IndexSize(n);
  if (size != IndexSize(n - 1)) {
    // The index starts or doubles: rebuild it from the items.
    index_ = std::make_unique<uint32_t[]>(size);
    for (size_t pos = 0; pos < n; ++pos) Link(static_cast<uint32_t>(pos));
  } else if (size != 0) {
    Link(static_cast<uint32_t>(n - 1));
  }
  return &items_.back().second;
}

void StateEntries::Link(uint32_t pos) {
  const size_t mask = IndexMask(items_.size());
  size_t i = internal::HomeSlot(items_[pos].first, mask);
  while (index_[i] != 0) i = (i + 1) & mask;
  index_[i] = pos + 1;
}

Status ProcessStateStore::CreateShard(ShardId shard, int64_t base_bytes) {
  ShardState state;
  state.base_bytes = base_bytes;
  return Insert(shard, std::move(state));
}

Status ProcessStateStore::InstallShard(ShardId shard, ShardState state) {
  return Insert(shard, std::move(state));
}

Status ProcessStateStore::Insert(ShardId shard, ShardState state) {
  ELASTICUTOR_CHECK_MSG(shard != kNoShard, "reserved shard id");
  if (HasShard(shard)) {
    return Status::AlreadyExists("shard " + std::to_string(shard));
  }
  if (2 * (size_ + 1) > slots_.size()) {
    // Grow to keep the table at most half full: every shard moves.
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = std::max(kMinSlots, 2 * old.size());
    slots_ = std::vector<Slot>(capacity);
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.id != kNoShard) Place(slot.id, std::move(slot.state));
    }
  }
  Place(shard, std::move(state));
  return Status::OK();
}

void ProcessStateStore::Place(ShardId shard, ShardState state) {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(shard, mask);
  while (slots_[i].id != kNoShard) i = (i + 1) & mask;
  slots_[i].id = shard;
  slots_[i].state = std::move(state);
  ++size_;
}

Result<ShardState> ProcessStateStore::ExtractShard(ShardId shard) {
  const Slot* found = Find(shard);
  if (found == nullptr) {
    return Status::NotFound("shard " + std::to_string(shard));
  }
  size_t hole = static_cast<size_t>(found - slots_.data());
  ShardState state = std::move(slots_[hole].state);
  // Backward-shift deletion: pull each later member of the probe chain into
  // the hole unless that would move it before its home slot.
  const size_t mask = slots_.size() - 1;
  for (size_t i = (hole + 1) & mask; slots_[i].id != kNoShard;
       i = (i + 1) & mask) {
    const size_t home = Home(slots_[i].id, mask);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole].id = slots_[i].id;
      slots_[hole].state = std::move(slots_[i].state);
      hole = i;
    }
  }
  slots_[hole].id = kNoShard;
  slots_[hole].state = ShardState();
  --size_;
  return state;
}

int64_t ProcessStateStore::TotalBytes() const {
  int64_t total = 0;
  ForEachShard(
      [&](ShardId, const ShardState& state) { total += state.bytes(); });
  return total;
}

}  // namespace elasticutor
