#include "elastic/reassign_protocol.h"

#include "common/status.h"

namespace elasticutor {

bool ReassignProtocol::References(OperatorId op, int worker) const {
  for (const auto& [id, m] : moves_) {
    if (m.op == op && (m.from == worker || m.to == worker)) return true;
  }
  return false;
}

int64_t ReassignProtocol::Request(OperatorId op, ShardId shard, int from,
                                  int to, bool moves_state) {
  ELASTICUTOR_CHECK(from >= 0 && to >= 0 && from != to);
  ELASTICUTOR_CHECK_MSG(busy_shards_.insert({op, shard}).second,
                        "second move requested for a shard in transition");
  const int64_t id = next_id_++;
  Move& m = moves_[id];
  m.id = id;
  m.op = op;
  m.shard = shard;
  m.from = from;
  m.to = to;
  m.moves_state = moves_state;
  return id;
}

const ReassignProtocol::Move& ReassignProtocol::Flip(int64_t id, int labels,
                                                     SimTime now) {
  Move* m = Advance(id, Phase::kPrecopying, Phase::kLabeling);
  ELASTICUTOR_CHECK_MSG(m != nullptr, "routing flipped before the pre-copy");
  m->flip_at = now;
  m->labels_outstanding = labels;
  m->barrier_armed = labels > 0;
  if (!m->barrier_armed) m->phase = Phase::kDrained;
  return *m;
}

bool ReassignProtocol::OnLabel(int64_t id, SimTime now) {
  auto it = moves_.find(id);
  if (it == moves_.end() || it->second.phase != Phase::kLabeling ||
      --it->second.labels_outstanding > 0) {
    return false;
  }
  it->second.drained_at = now;
  it->second.phase = Phase::kDrained;
  return true;
}

bool ReassignProtocol::Finalizable(const Move& m, bool source_quiescent) {
  return m.phase == Phase::kDrained &&
         (m.handle != nullptr || !m.moves_state) &&
         (m.barrier_armed || source_quiescent);
}

const ReassignProtocol::Move* ReassignProtocol::TryFinalize(
    int64_t id, bool source_quiescent) {
  auto it = moves_.find(id);
  if (it == moves_.end() || !Finalizable(it->second, source_quiescent)) {
    return nullptr;
  }
  it->second.phase = Phase::kFinalizing;
  return &it->second;
}

const ReassignProtocol::Move& ReassignProtocol::Staged(int64_t id) {
  Move* m = Advance(id, Phase::kFinalizing, Phase::kReady);
  ELASTICUTOR_CHECK_MSG(m != nullptr, "shard staged without a finalize");
  return *m;
}

ReassignProtocol::Move ReassignProtocol::Complete(int64_t id) {
  auto node = moves_.extract(id);
  ELASTICUTOR_CHECK(!node.empty() && node.mapped().phase == Phase::kInstalling);
  busy_shards_.erase({node.mapped().op, node.mapped().shard});
  ++completed_;
  return std::move(node.mapped());
}

void ReassignProtocol::CollectDuties(OperatorId op, int worker,
                                     bool quiescent, Duties* out) {
  for (auto& [id, m] : moves_) {
    if (m.op != op) continue;
    if (m.from == worker && m.phase == Phase::kRequested) {
      m.phase = Phase::kPrecopying;  // Claimed; nobody else starts it.
      out->precopy.push_back(m);
    } else if (m.from == worker && Finalizable(m, quiescent)) {
      out->finalize.push_back(m);
    } else if (m.to == worker && m.phase == Phase::kReady) {
      out->install.push_back(m);
    }
  }
}

ReassignProtocol::Move* ReassignProtocol::Advance(int64_t id, Phase from,
                                                  Phase to) {
  auto it = moves_.find(id);
  if (it == moves_.end() || it->second.phase != from) return nullptr;
  it->second.phase = to;
  return &it->second;
}

}  // namespace elasticutor
