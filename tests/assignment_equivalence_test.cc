// Sparse-vs-dense Algorithm 1 equivalence.
//
// The sparse indexed-heap solver (SolveAssignmentOnce) and the dense
// reference oracle (SolveAssignmentOnceDense) implement the same greedy with
// the same tie-breaking and shared marginal-cost arithmetic, so on any input
// they must agree *exactly*: feasibility, φ used, the full assignment and
// the (floating-point) migration cost. The randomized instances cover the
// regimes the scheduler produces — over/under-provisioned executors,
// data-intensive (locality-constrained) executors above φ, zero-capacity
// crashed nodes (the evacuation input: their cores are excluded from
// `current`), stateless executors, straggler node speeds and structurally
// infeasible demands.
#include <gtest/gtest.h>

#include <numeric>

#include "elasticutor/elasticutor.h"
#include "oracle/dense_assignment.h"

namespace elasticutor {
namespace {

AssignmentInput RandomInput(uint64_t seed) {
  Rng rng(seed);
  const int n = 2 + static_cast<int>(rng.NextBounded(47));
  const int m = 1 + static_cast<int>(rng.NextBounded(64));
  AssignmentInput in;
  in.node_capacity.resize(n);
  for (int i = 0; i < n; ++i) {
    // ~15% crashed/evacuating nodes with zero schedulable capacity.
    in.node_capacity[i] =
        rng.NextBool(0.15) ? 0 : 1 + static_cast<int>(rng.NextBounded(8));
  }
  if (std::accumulate(in.node_capacity.begin(), in.node_capacity.end(), 0) ==
      0) {
    in.node_capacity[0] = 8;
  }
  switch (rng.NextBounded(3)) {
    case 0:
      break;  // No speed vector at all.
    case 1:
      in.node_speed.assign(n, 1.0);
      break;
    default:
      in.node_speed.resize(n);
      for (int i = 0; i < n; ++i) {
        in.node_speed[i] = in.node_capacity[i] == 0
                               ? 0.0
                               : (rng.NextBool(0.25)
                                      ? 0.25 + 0.5 * rng.NextDouble()
                                      : 1.0);
      }
  }
  in.home.resize(m);
  in.target.resize(m);
  in.state_bytes.resize(m);
  in.data_intensity.resize(m);
  in.current = SparseAssignment(m);
  std::vector<int> used(n, 0);
  for (int j = 0; j < m; ++j) {
    // Homes may land on crashed nodes (the evacuation case: an intensive
    // executor whose home is gone forces the φ-doubling loop).
    in.home[j] = static_cast<int>(rng.NextBounded(n));
    int cores = static_cast<int>(rng.NextBounded(4));
    for (int c = 0; c < cores; ++c) {
      int i = static_cast<int>(rng.NextBounded(n));
      if (used[i] < in.node_capacity[i]) {
        ++used[i];
        in.current.Add(i, j, 1);
      }
    }
    in.target[j] = 1 + static_cast<int>(rng.NextBounded(4));
    in.state_bytes[j] = rng.NextBool(0.2) ? 0.0 : rng.NextDouble() * 16e6;
    // ~30% data-intensive (above the default φ = 512 KB/s), the rest below.
    in.data_intensity[j] = rng.NextBool(0.3)
                               ? 1e6 + rng.NextDouble() * 9e6
                               : rng.NextDouble() * 0.5 * in.phi;
  }
  return in;
}

void ExpectIdentical(const AssignmentOutput& sparse,
                     const AssignmentOutput& dense, uint64_t seed) {
  ASSERT_EQ(sparse.feasible, dense.feasible) << "seed " << seed;
  EXPECT_EQ(sparse.phi_used, dense.phi_used) << "seed " << seed;
  // Bit-identical, not approximately equal: the solvers share the marginal
  // cost helpers and the summation order of MigrationCostBytes.
  EXPECT_EQ(sparse.migration_cost_bytes, dense.migration_cost_bytes)
      << "seed " << seed;
  EXPECT_EQ(sparse.x, dense.x) << "seed " << seed;
}

TEST(AssignmentEquivalenceTest, RandomizedInstancesMatchExactly) {
  int feasible = 0, infeasible = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    AssignmentInput in = RandomInput(seed);
    AssignmentOutput sparse = SolveAssignment(in);
    AssignmentOutput dense = SolveAssignmentDense(in);
    ExpectIdentical(sparse, dense, seed);
    if (sparse.feasible) {
      ++feasible;
      // Identical assignments produce identical core-move plans.
      EXPECT_EQ(PlanCoreDiff(in.current, sparse.x),
                PlanCoreDiff(in.current, dense.x))
          << "seed " << seed;
      // Sanity: capacity respected and targets met.
      std::vector<int> used(in.node_capacity.size(), 0);
      for (int j = 0; j < sparse.x.num_executors(); ++j) {
        EXPECT_GE(sparse.x.Total(j), in.target[j]) << "seed " << seed;
        for (const auto& [node, cores] : sparse.x.exec[j]) {
          EXPECT_GT(cores, 0);
          used[node] += cores;
        }
      }
      for (size_t i = 0; i < used.size(); ++i) {
        EXPECT_LE(used[i], in.node_capacity[i]) << "seed " << seed;
      }
    } else {
      ++infeasible;
    }
  }
  // The generator must exercise both regimes.
  EXPECT_GT(feasible, 20);
  EXPECT_GT(infeasible, 5);
}

TEST(AssignmentEquivalenceTest, SinglePhiRunsMatchIncludingFailures) {
  // At a fixed φ both solvers must fail (or succeed) on exactly the same
  // instances — the doubling loop amplifies any divergence here.
  for (uint64_t seed = 200; seed <= 260; ++seed) {
    AssignmentInput in = RandomInput(seed);
    for (double phi : {in.phi, 64.0 * in.phi, 1e18}) {
      AssignmentOutput sparse = SolveAssignmentOnce(in, phi);
      AssignmentOutput dense = SolveAssignmentOnceDense(in, phi);
      ExpectIdentical(sparse, dense, seed);
    }
  }
}

TEST(AssignmentEquivalenceTest, CrashEvacuationInput) {
  // Node 1 crashed: zero capacity, and the four cores executors held there
  // are excluded from `current` (exactly the input DynamicScheduler builds).
  // Both solvers must replan those cores identically on healthy nodes.
  AssignmentInput in;
  in.node_capacity = {8, 0, 8};
  in.node_speed = {1.0, 0.0, 1.0};
  const int m = 4;
  in.home = {0, 1, 1, 2};  // Executors 1-2 homed on the dead node.
  in.target = {2, 2, 2, 2};
  in.state_bytes.assign(m, 4e6);
  in.data_intensity = {0.0, 1e7, 0.0, 0.0};  // Executor 1 is intensive.
  in.current = SparseAssignment(m);
  in.current.Add(0, 0, 2);
  in.current.Add(2, 3, 2);  // Executors 1-2 lost all their cores.
  AssignmentOutput sparse = SolveAssignment(in);
  AssignmentOutput dense = SolveAssignmentDense(in);
  ExpectIdentical(sparse, dense, 0);
  ASSERT_TRUE(sparse.feasible);
  for (int j = 0; j < m; ++j) {
    EXPECT_EQ(sparse.x.At(1, j), 0) << "core planned on the crashed node";
    EXPECT_GE(sparse.x.Total(j), in.target[j]);
  }
  // The intensive executor could not stay local (home is dead), so φ rose.
  EXPECT_GT(sparse.phi_used, in.phi);
}

TEST(PlanCoreDiffTest, EmitsMovesInNodeMajorOrder) {
  // Regression for ExecuteDiff's issuance order: one add per core and one
  // removal candidate per shrinking (node, executor), both (node, executor)
  // ascending — the order the historical dense n×m delta scan produced.
  SparseAssignment current = SparseAssignment::FromDense({
      {2, 0},  // node 0
      {0, 1},  // node 1
      {1, 0},  // node 2
  });
  SparseAssignment next = SparseAssignment::FromDense({
      {1, 1},
      {0, 1},
      {3, 0},
  });
  DiffPlan plan = PlanCoreDiff(current, next);
  std::vector<CoreMove> expected_adds = {{0, 1}, {2, 0}, {2, 0}};
  std::vector<CoreMove> expected_removals = {{0, 0}};
  EXPECT_EQ(plan.adds, expected_adds);
  EXPECT_EQ(plan.removal_candidates, expected_removals);

  // No-op diff plans nothing.
  DiffPlan none = PlanCoreDiff(current, current);
  EXPECT_TRUE(none.adds.empty());
  EXPECT_TRUE(none.removal_candidates.empty());
}

TEST(SparseAssignmentTest, AccessorsAndDenseRoundTrip) {
  SparseAssignment a(2);
  a.Add(3, 0, 2);
  a.Add(1, 0, 1);
  a.Add(2, 1, 4);
  EXPECT_EQ(a.At(3, 0), 2);
  EXPECT_EQ(a.At(1, 0), 1);
  EXPECT_EQ(a.At(0, 0), 0);
  EXPECT_EQ(a.Total(0), 3);
  EXPECT_EQ(a.Total(1), 4);
  // Entries stay node-ascending and vanish at zero.
  PlacementVec expected = {{1, 1}, {3, 2}};
  EXPECT_EQ(a.exec[0], expected);
  a.Add(1, 0, -1);
  EXPECT_EQ(a.exec[0].size(), 1u);
  EXPECT_EQ(a.At(1, 0), 0);

  SparseAssignment round = SparseAssignment::FromDense(a.ToDense(5));
  EXPECT_EQ(round, a);
}

}  // namespace
}  // namespace elasticutor
