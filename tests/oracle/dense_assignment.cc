#include "oracle/dense_assignment.h"

#include <vector>

#include "common/status.h"
#include "scheduler/assignment_greedy.h"

namespace elasticutor {

using assignment_greedy::kInf;
using assignment_greedy::MarginalAlloc;
using assignment_greedy::MarginalDealloc;
using assignment_greedy::SlownessPenalty;
using assignment_greedy::UnderProvisioned;

AssignmentOutput SolveAssignmentOnceDense(const AssignmentInput& in,
                                          double phi) {
  const int n = static_cast<int>(in.node_capacity.size());
  const int m = static_cast<int>(in.target.size());
  ELASTICUTOR_CHECK(static_cast<int>(in.current.exec.size()) == m);

  std::vector<std::vector<int>> x = in.current.ToDense(n);
  std::vector<int> total(m, 0);
  std::vector<int> free_cores(n, 0);
  for (int i = 0; i < n; ++i) {
    int used = 0;
    for (int j = 0; j < m; ++j) used += x[i][j];
    free_cores[i] = in.node_capacity[i] - used;
    ELASTICUTOR_CHECK_MSG(free_cores[i] >= 0, "node over capacity");
  }
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i < n; ++i) total[j] += x[i][j];
  }

  auto over_provisioned = [&](int j) { return total[j] > in.target[j]; };
  auto cost_alloc = [&](int i, int j) {
    return MarginalAlloc(in.state_bytes[j], total[j], x[i][j],
                         SlownessPenalty(in, i, j));
  };
  auto cost_dealloc = [&](int i, int j) {
    return MarginalDealloc(in.state_bytes[j], total[j], x[i][j]);
  };

  AssignmentOutput out;
  for (int j : UnderProvisioned(in, total)) {
    while (total[j] < in.target[j]) {
      if (in.data_intensity[j] > phi) {
        // Locality constraint: only cores on the home node.
        int i = in.home[j];
        if (free_cores[i] > 0) {
          --free_cores[i];
        } else {
          int donor = -1;
          double best = kInf;
          for (int cand = 0; cand < m; ++cand) {
            if (cand == j || !over_provisioned(cand) || x[i][cand] <= 0) {
              continue;
            }
            double cost = cost_dealloc(i, cand);
            if (cost < best) {
              best = cost;
              donor = cand;
            }
          }
          if (donor < 0) return out;  // FAIL at this φ.
          --x[i][donor];
          --total[donor];
        }
        ++x[i][j];
        ++total[j];
      } else {
        // Any node: cheapest dealloc+alloc pair (free cores cost only C+).
        int best_node = -1, donor = -1;
        double best = kInf;
        for (int i = 0; i < n; ++i) {
          if (free_cores[i] > 0) {
            double cost = cost_alloc(i, j);
            if (cost < best) {
              best = cost;
              best_node = i;
              donor = -1;
            }
          }
          for (int cand = 0; cand < m; ++cand) {
            if (cand == j || !over_provisioned(cand) || x[i][cand] <= 0) {
              continue;
            }
            double cost = cost_dealloc(i, cand) + cost_alloc(i, j);
            if (cost < best) {
              best = cost;
              best_node = i;
              donor = cand;
            }
          }
        }
        if (best_node < 0) return out;  // FAIL at this φ.
        if (donor >= 0) {
          --x[best_node][donor];
          --total[donor];
        } else {
          --free_cores[best_node];
        }
        ++x[best_node][j];
        ++total[j];
      }
    }
  }

  out.feasible = true;
  out.x = SparseAssignment::FromDense(x);
  out.phi_used = phi;
  out.migration_cost_bytes = MigrationCostBytes(in, out.x);
  return out;
}

AssignmentOutput SolveAssignmentDense(const AssignmentInput& in) {
  return assignment_greedy::SolveWithPhiDoubling(in,
                                                 SolveAssignmentOnceDense);
}

}  // namespace elasticutor
