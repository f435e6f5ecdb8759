// ReassignProtocol — the paper's consistent shard reassignment (§3.3) as one
// single-threaded state machine that both backends drive: ElasticExecutor on
// the simulator (a "worker" is a task) and NativeRuntime on real threads (a
// worker thread). It owns the move records and decides the protocol's order;
// the drivers translate its transitions into their own clock and transport
// (docs/architecture.md tabulates who does what in each phase). Rules:
//  1. One move per shard (Request CHECKs; drivers ask InTransition first).
//  2. Flip only after the pre-copy (Flip CHECKs kPrecopying).
//  3. Drain before finalize: TryFinalize refuses until the move is drained,
//     its handle has landed (a free pre-copy flips inside Begin, before Begin
//     returns the handle), and the barrier was armed or the caller vouches
//     that the old owner is quiescent — with no label to wait for, the old
//     owner's queued backlog is the drain and must be consumed first.
//  4. Install only after finalize (BeginInstall refuses before Staged).
//  5. Evacuation before exit: a worker that an in-flight move names as
//     source or destination may not exit (References).
//
// Not thread-safe: the native runtime calls it under its control mutex.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "engine/ids.h"
#include "sim/time.h"
#include "state/migration_engine.h"
#include "state/state_store.h"

namespace elasticutor {

class ReassignProtocol {
 public:
  enum class Phase {
    kRequested,   // Posted; Claim starts the pre-copy.
    kPrecopying,  // MigrationEngine pre-copy running; Flip ends it.
    kLabeling,    // Routing paused (sim) or flipped (native); labels travel.
    kDrained,     // Every pre-flip tuple processed; TryFinalize ships.
    kFinalizing,  // Delta shipping; Staged once it landed.
    kReady,       // BeginInstall at the destination.
    kInstalling,  // Routing resumes, held tuples replay; then Complete.
  };

  struct Move {
    int64_t id = -1;  // Also the id the labels carry.
    OperatorId op = -1;
    ShardId shard = -1;
    int from = -1;
    int to = -1;
    Phase phase = Phase::kRequested;
    /// False when the backend moves no state (intra-process sharing, an
    /// external store): no handle ever lands.
    bool moves_state = true;
    MigrationEngine::Handle handle;
    int labels_outstanding = 0;
    bool barrier_armed = false;  // Flip expected at least one label.
    SimTime flip_at = 0;         // Routing paused (sim) or flipped (native).
    SimTime drained_at = 0;      // Last expected label consumed.
  };

  /// Moves one worker must act on now (see CollectDuties).
  struct Duties {
    std::vector<Move> precopy, finalize, install;
  };

  bool InTransition(OperatorId op, ShardId shard) const {
    return busy_shards_.count({op, shard}) > 0;
  }
  bool References(OperatorId op, int worker) const;

  /// Registers a move in kRequested; its id doubles as the label id.
  int64_t Request(OperatorId op, ShardId shard, int from, int to,
                  bool moves_state);
  /// kRequested -> kPrecopying; false when already claimed.
  bool Claim(int64_t id) {
    return Advance(id, Phase::kRequested, Phase::kPrecopying) != nullptr;
  }
  void AttachHandle(int64_t id, MigrationEngine::Handle handle) {
    moves_.at(id).handle = std::move(handle);
  }
  /// Pre-copy done: the driver sends `labels` labels. With none the barrier
  /// stays unarmed and the move is drained at once (rule 3 then applies).
  const Move& Flip(int64_t id, int labels, SimTime now);
  /// True iff this was the move's last expected label. Labels of unknown
  /// ids, or of moves no longer labeling, are stale and ignored.
  bool OnLabel(int64_t id, SimTime now);
  /// kDrained -> kFinalizing if rule 3 holds, else nullptr.
  const Move* TryFinalize(int64_t id, bool source_quiescent);
  /// kFinalizing -> kReady: MigrationEngine::Finalize landed.
  const Move& Staged(int64_t id);
  /// kReady -> kInstalling for exactly one caller; nullptr otherwise.
  const Move* BeginInstall(int64_t id) {
    return Advance(id, Phase::kReady, Phase::kInstalling);
  }
  /// The move leaves the machine, frees its shard and counts as completed.
  Move Complete(int64_t id);

  /// `worker`'s pre-copies to start (claimed here), drains to finalize (rule
  /// 3; `quiescent`: its input is exhausted) and shards to install.
  void CollectDuties(OperatorId op, int worker, bool quiescent, Duties* out);

  int64_t in_flight() const { return static_cast<int64_t>(moves_.size()); }
  int64_t completed() const { return completed_; }

 private:
  /// The move if it is in phase `from` (now moved to `to`), else nullptr.
  Move* Advance(int64_t id, Phase from, Phase to);
  static bool Finalizable(const Move& m, bool source_quiescent);

  std::map<int64_t, Move> moves_;
  std::set<std::pair<OperatorId, ShardId>> busy_shards_;
  int64_t next_id_ = 0;
  int64_t completed_ = 0;
};

}  // namespace elasticutor
