#include "scheduler/assignment.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>

#include "common/status.h"
#include "scheduler/assignment_greedy.h"

namespace elasticutor {

namespace {

using assignment_greedy::kInf;
using assignment_greedy::MarginalAlloc;
using assignment_greedy::MarginalDealloc;
using assignment_greedy::SlownessPenalty;
using assignment_greedy::SolveWithPhiDoubling;
using assignment_greedy::UnderProvisioned;

int GetAt(const PlacementVec& p, int node) {
  auto it = std::lower_bound(
      p.begin(), p.end(), node,
      [](const std::pair<int, int>& e, int v) { return e.first < v; });
  return (it != p.end() && it->first == node) ? it->second : 0;
}

void AddAt(PlacementVec& p, int node, int delta) {
  auto it = std::lower_bound(
      p.begin(), p.end(), node,
      [](const std::pair<int, int>& e, int v) { return e.first < v; });
  if (it != p.end() && it->first == node) {
    it->second += delta;
    if (it->second == 0) p.erase(it);
  } else if (delta != 0) {
    p.insert(it, {node, delta});
  }
}

// ---------------------------------------------------------------------------
// Sparse indexed-heap solver.
//
// State per grant candidate, mirroring the dense scan's tie-breaking
// (first strict minimum in (node, donor)-ascending order):
//  * donor_heaps_[i] — min-heap of (C⁻_i,cand, cand) over executors holding
//    cores on node i. Entries are lazily invalidated: a pop/peek recomputes
//    the cost and drops entries whose stored cost or eligibility no longer
//    match; every donation eagerly re-pushes fresh entries for the donor's
//    placement nodes, so the true minimum is always present.
//  * node_heap_ — min-heap of (base_i, i) where base_i is the node's
//    donor-independent floor: 0 with free cores, else the clean donor-heap
//    top, else +inf (node unusable). base_[i] caches the true value; an
//    entry is stale iff its stored base differs.
//
// A grant for executor j evaluates exactly: (1) the nodes of j's own
// placement (the only nodes where the alloc discount −s·x_ij/(X_j(X_j+1))
// applies), and (2) heap nodes popped while base_i + C⁺(x_ij=0, penalty=0)
// could still beat the best candidate — for unpenalized foreign nodes that
// bound is exact, so the pop run ends after one entry in the common case.
// ---------------------------------------------------------------------------

class SparseSolver {
 public:
  SparseSolver(const AssignmentInput& in, double phi)
      : in_(in),
        phi_(phi),
        n_(static_cast<int>(in.node_capacity.size())),
        m_(static_cast<int>(in.target.size())) {}

  AssignmentOutput Solve() {
    Init();
    AssignmentOutput out;
    for (int j : UnderProvisioned(in_, total_)) {
      while (total_[j] < in_.target[j]) {
        if (in_.data_intensity[j] > phi_) {
          if (!GrantLocal(j)) return out;  // FAIL at this φ.
        } else {
          if (!GrantAnywhere(j)) return out;  // FAIL at this φ.
        }
      }
    }
    out.feasible = true;
    out.x.exec = std::move(x_);
    out.phi_used = phi_;
    out.migration_cost_bytes = MigrationCostBytes(in_, out.x);
    return out;
  }

 private:
  struct DonorEntry {
    double cost;
    int cand;
  };
  struct DonorGreater {
    bool operator()(const DonorEntry& a, const DonorEntry& b) const {
      if (a.cost != b.cost) return a.cost > b.cost;
      return a.cand > b.cand;
    }
  };
  using DonorHeap =
      std::priority_queue<DonorEntry, std::vector<DonorEntry>, DonorGreater>;

  struct NodeEntry {
    double base;
    int node;
  };
  struct NodeGreater {
    bool operator()(const NodeEntry& a, const NodeEntry& b) const {
      if (a.base != b.base) return a.base > b.base;
      return a.node > b.node;
    }
  };
  using NodeHeap =
      std::priority_queue<NodeEntry, std::vector<NodeEntry>, NodeGreater>;

  struct Candidate {
    double cost = 0.0;
    int node = -1;
    int donor = -1;  // -1 = free core; sorts before every executor id.
    bool valid = false;
  };

  void Init() {
    ELASTICUTOR_CHECK(static_cast<int>(in_.current.exec.size()) == m_);
    x_ = in_.current.exec;
    total_.assign(m_, 0);
    std::vector<int> used(n_, 0);
    for (int j = 0; j < m_; ++j) {
      for (const auto& [node, cores] : x_[j]) {
        total_[j] += cores;
        used[node] += cores;
      }
    }
    free_cores_.resize(n_);
    for (int i = 0; i < n_; ++i) {
      free_cores_[i] = in_.node_capacity[i] - used[i];
      ELASTICUTOR_CHECK_MSG(free_cores_[i] >= 0, "node over capacity");
    }
    donor_heaps_.resize(n_);
    for (int cand = 0; cand < m_; ++cand) {
      if (total_[cand] <= in_.target[cand]) continue;
      for (const auto& [node, cores] : x_[cand]) {
        donor_heaps_[node].push(
            {MarginalDealloc(in_.state_bytes[cand], total_[cand], cores),
             cand});
      }
    }
    base_.assign(n_, kInf);
    for (int i = 0; i < n_; ++i) {
      double nb = NodeBase(i);
      base_[i] = nb;
      if (nb < kInf) node_heap_.push({nb, i});
    }
  }

  bool DonorEligible(int cand) const {
    return total_[cand] > in_.target[cand];
  }

  /// Valid minimum of node i's donor heap (pops stale entries).
  std::optional<DonorEntry> CleanDonorTop(int i) {
    DonorHeap& heap = donor_heaps_[i];
    while (!heap.empty()) {
      DonorEntry e = heap.top();
      if (DonorEligible(e.cand)) {
        int x_ic = GetAt(x_[e.cand], i);
        if (x_ic > 0 &&
            MarginalDealloc(in_.state_bytes[e.cand], total_[e.cand], x_ic) ==
                e.cost) {
          return e;
        }
      }
      heap.pop();
    }
    return std::nullopt;
  }

  double NodeBase(int i) {
    if (free_cores_[i] > 0) return 0.0;
    auto top = CleanDonorTop(i);
    return top ? top->cost : kInf;
  }

  void RefreshNodeBase(int i) {
    double nb = NodeBase(i);
    if (nb != base_[i]) {
      base_[i] = nb;
      if (nb < kInf) node_heap_.push({nb, i});
    }
  }

  /// Takes one core on `node` from `donor` (-1 = a free core) and hands it
  /// to `j`, eagerly re-posting every heap entry the change dirties.
  void ApplyGrant(int node, int donor, int j) {
    if (donor >= 0) {
      AddAt(x_[donor], node, -1);
      --total_[donor];
      // The donor's marginal dealloc cost changed on every node it still
      // occupies (X_cand moved); repost fresh entries and refresh the
      // affected node floors. Stale copies die lazily on the next peek.
      bool eligible = DonorEligible(donor);
      for (const auto& [nd, cores] : x_[donor]) {
        if (eligible) {
          donor_heaps_[nd].push(
              {MarginalDealloc(in_.state_bytes[donor], total_[donor], cores),
               donor});
        }
        RefreshNodeBase(nd);
      }
      RefreshNodeBase(node);  // Covers the donor fully leaving `node`.
    } else {
      --free_cores_[node];
      RefreshNodeBase(node);
    }
    AddAt(x_[j], node, +1);
    ++total_[j];
  }

  /// Locality-constrained grant: only the home node (free core, else the
  /// cheapest donor there — the per-node min-heap).
  bool GrantLocal(int j) {
    int i = in_.home[j];
    if (free_cores_[i] > 0) {
      ApplyGrant(i, -1, j);
      return true;
    }
    auto top = CleanDonorTop(i);
    if (!top) return false;
    ApplyGrant(i, top->cand, j);
    return true;
  }

  static void Consider(Candidate& best, double cost, int node, int donor) {
    if (!best.valid || cost < best.cost ||
        (cost == best.cost &&
         (node < best.node || (node == best.node && donor < best.donor)))) {
      best = {cost, node, donor, true};
    }
  }

  /// Unconstrained grant: cheapest (node, donor) pair over the cluster.
  bool GrantAnywhere(int j) {
    const double s = in_.state_bytes[j];
    const int xj = total_[j];
    Candidate best;
    auto evaluate = [&](int node) {
      double alloc =
          MarginalAlloc(s, xj, GetAt(x_[j], node), SlownessPenalty(in_, node, j));
      if (free_cores_[node] > 0) {
        Consider(best, alloc, node, -1);
      } else if (auto top = CleanDonorTop(node)) {
        Consider(best, top->cost + alloc, node, top->cand);
      }
    };
    // Nodes of j's own placement: the only ones where the alloc discount
    // applies, so the heap's floor bound below would undershoot them.
    for (const auto& [node, cores] : x_[j]) evaluate(node);
    // C⁺ floor for any foreign unpenalized node (x_ij = 0, penalty = 0):
    // exact for such nodes, a lower bound everywhere.
    const double alloc_floor = MarginalAlloc(s, xj, 0, 0.0);
    scratch_.clear();
    while (!node_heap_.empty()) {
      NodeEntry e = node_heap_.top();
      if (e.base != base_[e.node]) {  // Stale; a fresh copy exists.
        node_heap_.pop();
        continue;
      }
      if (best.valid) {
        double floor = e.base + alloc_floor;
        if (floor > best.cost ||
            (floor == best.cost && e.node >= best.node)) {
          break;
        }
      }
      node_heap_.pop();
      scratch_.push_back(e);
      evaluate(e.node);
    }
    // Valid entries must stay resident (RefreshNodeBase only re-posts on a
    // change); restore them before the grant mutates any base.
    for (const NodeEntry& e : scratch_) node_heap_.push(e);
    if (!best.valid) return false;
    ApplyGrant(best.node, best.donor, j);
    return true;
  }

  const AssignmentInput& in_;
  const double phi_;
  const int n_, m_;

  std::vector<PlacementVec> x_;  // Working placements, node-sorted.
  std::vector<int> total_;       // X_j.
  std::vector<int> free_cores_;  // Per node.

  std::vector<DonorHeap> donor_heaps_;
  NodeHeap node_heap_;
  std::vector<double> base_;
  std::vector<NodeEntry> scratch_;
};

}  // namespace

std::vector<int> assignment_greedy::UnderProvisioned(
    const AssignmentInput& in, const std::vector<int>& total) {
  std::vector<int> under;
  for (int j = 0; j < static_cast<int>(in.target.size()); ++j) {
    if (total[j] < in.target[j]) under.push_back(j);
  }
  std::sort(under.begin(), under.end(), [&](int a, int b) {
    if (in.data_intensity[a] != in.data_intensity[b]) {
      return in.data_intensity[a] > in.data_intensity[b];
    }
    return a < b;
  });
  return under;
}

// ---- SparseAssignment ----

int SparseAssignment::At(int node, int j) const { return GetAt(exec[j], node); }

void SparseAssignment::Add(int node, int j, int delta) {
  AddAt(exec[j], node, delta);
}

int SparseAssignment::Total(int j) const {
  int total = 0;
  for (const auto& [node, cores] : exec[j]) total += cores;
  return total;
}

SparseAssignment SparseAssignment::FromDense(
    const std::vector<std::vector<int>>& x) {
  const int n = static_cast<int>(x.size());
  const int m = n > 0 ? static_cast<int>(x[0].size()) : 0;
  SparseAssignment out(m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      if (x[i][j] != 0) out.exec[j].push_back({i, x[i][j]});
    }
  }
  return out;
}

std::vector<std::vector<int>> SparseAssignment::ToDense(int num_nodes) const {
  std::vector<std::vector<int>> dense(
      num_nodes, std::vector<int>(exec.size(), 0));
  for (int j = 0; j < static_cast<int>(exec.size()); ++j) {
    for (const auto& [node, cores] : exec[j]) {
      ELASTICUTOR_CHECK(node >= 0 && node < num_nodes);
      dense[node][j] = cores;
    }
  }
  return dense;
}

// ---- Cost / diff ----

double MigrationCostBytes(const AssignmentInput& in,
                          const SparseAssignment& x) {
  const int m = static_cast<int>(in.target.size());
  static const PlacementVec kEmpty;
  double cost = 0.0;
  for (int j = 0; j < m; ++j) {
    const PlacementVec& cur =
        j < in.current.num_executors() ? in.current.exec[j] : kEmpty;
    const PlacementVec& nxt = j < x.num_executors() ? x.exec[j] : kEmpty;
    int old_total = 0, new_total = 0;
    for (const auto& [node, cores] : cur) old_total += cores;
    for (const auto& [node, cores] : nxt) new_total += cores;
    if (old_total == 0 || new_total == 0) continue;
    // Node-ascending merge over the union of touched nodes; everywhere else
    // both shares are zero and contribute nothing.
    size_t a = 0, b = 0;
    while (a < cur.size() || b < nxt.size()) {
      int node_a = a < cur.size() ? cur[a].first
                                  : std::numeric_limits<int>::max();
      int node_b = b < nxt.size() ? nxt[b].first
                                  : std::numeric_limits<int>::max();
      int node = std::min(node_a, node_b);
      int before_cores = node_a == node ? cur[a++].second : 0;
      int after_cores = node_b == node ? nxt[b++].second : 0;
      double before = in.state_bytes[j] * before_cores / old_total;
      double after = in.state_bytes[j] * after_cores / new_total;
      cost += std::max(0.0, before - after);
    }
  }
  return cost;
}

DiffPlan PlanCoreDiff(const SparseAssignment& current,
                      const SparseAssignment& x) {
  DiffPlan plan;
  static const PlacementVec kEmpty;
  const int m = std::max(current.num_executors(), x.num_executors());
  for (int j = 0; j < m; ++j) {
    const PlacementVec& cur =
        j < current.num_executors() ? current.exec[j] : kEmpty;
    const PlacementVec& nxt = j < x.num_executors() ? x.exec[j] : kEmpty;
    size_t a = 0, b = 0;
    while (a < cur.size() || b < nxt.size()) {
      int node_a = a < cur.size() ? cur[a].first
                                  : std::numeric_limits<int>::max();
      int node_b = b < nxt.size() ? nxt[b].first
                                  : std::numeric_limits<int>::max();
      int node = std::min(node_a, node_b);
      int delta = (node_b == node ? nxt[b++].second : 0) -
                  (node_a == node ? cur[a++].second : 0);
      if (delta > 0) {
        for (int k = 0; k < delta; ++k) plan.adds.push_back({node, j});
      } else if (delta < 0) {
        plan.removal_candidates.push_back({node, j});
      }
    }
  }
  // The scheduler issues moves node-major ((node, executor) ascending), the
  // order the historical dense delta scan produced; per-node add order also
  // feeds the TryDrainPendingAdds FIFO.
  auto by_node_then_executor = [](const CoreMove& a, const CoreMove& b) {
    if (a.node != b.node) return a.node < b.node;
    return a.executor < b.executor;
  };
  std::sort(plan.adds.begin(), plan.adds.end(), by_node_then_executor);
  std::sort(plan.removal_candidates.begin(), plan.removal_candidates.end(),
            by_node_then_executor);
  return plan;
}

// ---- Solvers ----

AssignmentOutput SolveAssignmentOnce(const AssignmentInput& in, double phi) {
  return SparseSolver(in, phi).Solve();
}

AssignmentOutput SolveAssignment(const AssignmentInput& in) {
  return SolveWithPhiDoubling(in, SolveAssignmentOnce);
}

AssignmentOutput NaiveAssignment(const AssignmentInput& in, uint64_t salt) {
  const int n = static_cast<int>(in.node_capacity.size());
  const int m = static_cast<int>(in.target.size());
  AssignmentOutput out;
  out.x = SparseAssignment(m);
  std::vector<int> free_cores = in.node_capacity;
  int cursor = static_cast<int>(salt % static_cast<uint64_t>(n));
  for (int j = 0; j < m; ++j) {
    // First-fit from a rotating cursor, oblivious to home nodes and the
    // existing placement — an executor's only task can end up remote from
    // its receiver/emitter, which is exactly the locality failure the
    // optimized Algorithm 1 avoids.
    int need = in.target[j];
    for (int step = 0; step < n && need > 0; ++step) {
      int i = (cursor + step) % n;
      int take = std::min(need, free_cores[i]);
      if (take > 0) {
        free_cores[i] -= take;
        out.x.Add(i, j, take);
        need -= take;
      }
    }
    cursor = (cursor + 1) % n;
    if (need > 0) return AssignmentOutput{};  // Out of capacity.
  }
  out.feasible = true;
  out.phi_used = 0.0;
  out.migration_cost_bytes = MigrationCostBytes(in, out.x);
  return out;
}

}  // namespace elasticutor
