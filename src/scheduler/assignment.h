// CPU-to-executor assignment (§4.2, Algorithm 1).
//
// Given per-executor core targets k_j (from the performance model), the
// existing assignment X̃ and per-node capacities c_i, find a new assignment
// X minimizing the state-migration cost
//
//   C(X|X̃) = Σ_j Σ_i max(0, s_j·x̃_ij/X̃_j − s_j·x_ij/X_j)
//
// subject to (a) node capacity, (b) X_j ≥ k_j, and (c) computation locality:
// executors whose per-core data intensity exceeds φ accept only cores on
// their local node. The greedy uses the marginal costs
//
//   C⁺_ij(X) = s_j (X_j − x_ij) / (X_j (X_j+1))   — allocating on node i
//   C⁻_ij(X) = s_j (X_j − x_ij) / (X_j (X_j−1))   — deallocating from node i
//
// and processes under-provisioned executors in descending data intensity.
// If no feasible assignment exists at φ, the caller doubles φ and retries
// (SolveAssignment automates the doubling).
//
// SolveAssignmentOnce implements the greedy with sparse placements plus
// indexed min-heaps (a per-node heap of dealloc candidates and a global heap
// over nodes) with lazy invalidation, so a core grant costs O((P + K)·log)
// where P is the touched executors' placement size and K the popped tie run
// — not O(n·m). The original dense scan lives on outside the library as the
// reference oracle (tests/oracle/dense_assignment.h). Both share the
// helpers in assignment_greedy.h and identical tie-breaking ((cost, node,
// donor) lexicographic), so their decisions are bit-identical;
// tests/assignment_equivalence_test.cc enforces it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace elasticutor {

/// Sparse placement of one executor: node-ascending (node, cores) pairs,
/// cores > 0 (absent node = zero cores).
using PlacementVec = std::vector<std::pair<int, int>>;

/// Sparse assignment matrix, stored per executor. Executors touch a handful
/// of nodes while clusters have thousands, so the dense n×m matrix is
/// almost entirely zeros; this stores only the nonzero columns.
struct SparseAssignment {
  std::vector<PlacementVec> exec;  // [executor] → sorted (node, cores).

  SparseAssignment() = default;
  explicit SparseAssignment(int num_executors) : exec(num_executors) {}

  int num_executors() const { return static_cast<int>(exec.size()); }
  /// Cores of executor `j` on `node` (0 when absent).
  int At(int node, int j) const;
  /// Adds `delta` cores of executor `j` on `node`, keeping entries sorted
  /// and dropping them at zero.
  void Add(int node, int j, int delta);
  /// Total cores of executor `j` (X_j).
  int Total(int j) const;

  static SparseAssignment FromDense(const std::vector<std::vector<int>>& x);
  /// Dense [node][executor] matrix (tests and the dense oracle).
  std::vector<std::vector<int>> ToDense(int num_nodes) const;

  bool operator==(const SparseAssignment&) const = default;
};

struct AssignmentInput {
  std::vector<int> node_capacity;          // c_i.
  std::vector<int> home;                   // I(j), node of the main process.
  std::vector<int> target;                 // k_j (each >= 1).
  std::vector<double> state_bytes;         // s_j.
  std::vector<double> data_intensity;      // Bytes/s per core.
  SparseAssignment current;                // x̃, per-executor placements.
  double phi = 512.0 * 1024.0;             // Initial φ̃.
  /// Relative per-core speed of each node (perf_model.h CoreSpeed of the
  /// fault plane's cpu_factor; 1 = nominal). Empty = all nominal. The
  /// greedy penalizes allocating on slow nodes, so scale-out placement
  /// avoids stragglers unless migration savings dominate.
  std::vector<double> node_speed;
};

struct AssignmentOutput {
  bool feasible = false;
  SparseAssignment x;                      // Per-executor placements.
  double phi_used = 0.0;                   // φ of the feasible solution.
  double migration_cost_bytes = 0.0;       // C(X|X̃).
};

/// One run of Algorithm 1 at a fixed φ — sparse indexed-heap solver.
AssignmentOutput SolveAssignmentOnce(const AssignmentInput& in, double phi);

/// Algorithm 1 with the paper's φ-doubling loop. Always terminates: with
/// φ = ∞ the locality constraint vanishes and a solution exists whenever
/// Σ k_j ≤ Σ c_i.
AssignmentOutput SolveAssignment(const AssignmentInput& in);

/// naive-EC baseline: first-fit packing of k_j cores over nodes, ignoring
/// the current assignment, state sizes and data intensity. `salt` rotates
/// the packing order between invocations (the point of naive-EC is that
/// placement is recomputed obliviously each cycle, so cores — and the state
/// behind them — wander between nodes).
AssignmentOutput NaiveAssignment(const AssignmentInput& in, uint64_t salt = 0);

/// C(X|X̃) between two assignments. Iterates only placements present in
/// either side — cost O(moved entries), not O(n·m).
double MigrationCostBytes(const AssignmentInput& in,
                          const SparseAssignment& x);

/// One planned core move: executor `executor` gains/loses a core on `node`.
struct CoreMove {
  int node = -1;
  int executor = -1;
  bool operator==(const CoreMove&) const = default;
};

/// The diff between the live placement and a solver output, in the exact
/// order the scheduler issues moves: additions carry one entry per core and
/// removal candidates one entry per (node, executor) that must shrink, both
/// (node, executor)-ascending. Pure function of the two sparse assignments
/// (no n×m delta matrix), shared by DynamicScheduler::ExecuteDiff and the
/// equivalence tests.
struct DiffPlan {
  std::vector<CoreMove> adds;
  std::vector<CoreMove> removal_candidates;
  bool operator==(const DiffPlan&) const = default;
};
DiffPlan PlanCoreDiff(const SparseAssignment& current,
                      const SparseAssignment& x);

}  // namespace elasticutor
