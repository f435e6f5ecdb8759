// The parts of Algorithm 1's greedy (assignment.h) that the production
// solver shares with the dense reference oracle (tests/oracle/): the
// marginal costs, the order executors are served in, and the φ-doubling
// loop. One code path for each, so the two solvers' floating-point results
// and decisions are bit-identical.
#pragma once

#include <limits>
#include <numeric>
#include <vector>

#include "scheduler/assignment.h"

namespace elasticutor {
namespace assignment_greedy {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Penalty (in cost bytes) for allocating a core on a slow node: a node at
// speed 1/f forfeits (f - 1) nominal cores' worth of work, priced against
// the executor's state size so it stays commensurable with migration cost
// (the +1 keeps the preference strict even for stateless executors).
inline double SlownessPenalty(const AssignmentInput& in, int node, int j) {
  if (in.node_speed.empty()) return 0.0;
  double speed = in.node_speed[node];
  if (speed >= 1.0 || speed <= 0.0) return 0.0;
  return (1.0 / speed - 1.0) * (in.state_bytes[j] + 1.0);
}

// C⁺_ij: allocating a core of executor j (X_j = xj, x_ij on node i).
inline double MarginalAlloc(double s, int xj, int x_ij, double penalty) {
  if (xj <= 0) return penalty;
  return s * (xj - x_ij) / (static_cast<double>(xj) * (xj + 1)) + penalty;
}

// C⁻_ij: deallocating one.
inline double MarginalDealloc(double s, int xj, int x_ij) {
  if (xj <= 1) return kInf;  // Would drop the executor to zero cores.
  return s * (xj - x_ij) / (static_cast<double>(xj) * (xj - 1));
}

/// Under-provisioned executors, most data-intensive first; the index
/// tie-break keeps both solvers (and any std::sort) in lockstep.
std::vector<int> UnderProvisioned(const AssignmentInput& in,
                                  const std::vector<int>& total);

/// The paper's φ-doubling loop over a single-φ solver.
template <typename SolveOnce>
AssignmentOutput SolveWithPhiDoubling(const AssignmentInput& in,
                                      SolveOnce solve_once) {
  int total_target = std::accumulate(in.target.begin(), in.target.end(), 0);
  int total_capacity =
      std::accumulate(in.node_capacity.begin(), in.node_capacity.end(), 0);
  if (total_target > total_capacity) {
    return AssignmentOutput{};  // Structurally infeasible.
  }
  double phi = in.phi;
  for (int attempt = 0; attempt < 64; ++attempt) {
    AssignmentOutput out = solve_once(in, phi);
    if (out.feasible) return out;
    phi *= 2.0;
  }
  return solve_once(in, kInf);
}

}  // namespace assignment_greedy
}  // namespace elasticutor
