// Table 3: Elasticutor's throughput and scheduling time as the cluster
// scales from 8 to 32 nodes (SSE workload, saturation). Paper values:
// 66.6 / 121.3 / 218.6 k tuples/s and 4.1 / 5.2 / 5.7 ms scheduling time —
// near-linear throughput scaling with a scheduler that stays in the
// milliseconds.
//
// Beyond the paper: a large-cluster control-plane sweep (128/512/2048
// nodes, one executor per node, millions of keys of state) that runs
// Algorithm 1 standalone on synthetic saturation demands — hot executors
// double their cores, cold ones shrink — and times the sparse indexed-heap
// solver against the retained dense reference oracle on identical inputs
// (outputs are CHECK'd equal). This is the scale where the dense
// O(n·m)-per-grant scan melts (seconds per cycle at 2048 nodes) while the
// heap solver stays in single-digit milliseconds.
#include <chrono>

#include "harness/experiment.h"
#include "oracle/dense_assignment.h"

using namespace elasticutor;
using namespace elasticutor::bench;

namespace {

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// One synthetic control-plane cycle set for an n-node cluster: every node
// contributes one executor holding 4 of the node's 8 cores; each cycle a
// rotating window of 32 executors turns hot (target 8) and 32 turns cold
// (target 2, becoming dealloc donors), everyone else holds steady. The
// assignment is carried across cycles (current ← x), so later cycles diff
// against the previous plan exactly like the live scheduler.
struct SweepResult {
  int64_t keys = 0;
  int64_t grants = 0;
  double sparse_ms = 0.0;  // Mean per-cycle solve wall (heap solver).
  double dense_ms = 0.0;   // Mean per-cycle solve wall (dense oracle).
  double diff_ms = 0.0;    // Mean per-cycle PlanCoreDiff wall.
};

SweepResult RunControlPlaneSweep(int nodes, int cycles) {
  using Clock = std::chrono::steady_clock;
  const int m = nodes;
  constexpr int kKeysPerExecutor = 2048;
  constexpr double kBytesPerKey = 512.0;

  AssignmentInput in;
  in.node_capacity.assign(nodes, 8);
  in.home.resize(m);
  in.state_bytes.resize(m);
  in.data_intensity.resize(m);
  in.target.assign(m, 4);
  in.current = SparseAssignment(m);
  for (int j = 0; j < m; ++j) {
    in.home[j] = j;
    in.current.Add(j, j, 4);
    in.state_bytes[j] = kKeysPerExecutor * kBytesPerKey;
    // Every 8th executor is data-intensive (above φ): its grants are
    // locality-constrained to the home node.
    in.data_intensity[j] = j % 8 == 0 ? 1e7 : 100e3;
  }

  SweepResult result;
  result.keys = static_cast<int64_t>(m) * kKeysPerExecutor;
  const int perturbed = std::min(32, m / 2);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    // Rotate the hot/cold windows so every cycle replans fresh executors.
    int hot_base = (cycle * 2 * perturbed) % m;
    for (int k = 0; k < perturbed; ++k) {
      in.target[(hot_base + k) % m] = 8;
      in.target[(hot_base + perturbed + k) % m] = 2;
    }

    auto t0 = Clock::now();
    AssignmentOutput sparse = SolveAssignment(in);
    auto t1 = Clock::now();
    AssignmentOutput dense = SolveAssignmentDense(in);
    auto t2 = Clock::now();
    ELASTICUTOR_CHECK_MSG(sparse.feasible && dense.feasible,
                          "sweep instance must be feasible");
    // The whole point of keeping the oracle: identical decisions.
    ELASTICUTOR_CHECK_MSG(sparse.x == dense.x &&
                              sparse.migration_cost_bytes ==
                                  dense.migration_cost_bytes,
                          "sparse and dense solvers diverged");
    DiffPlan plan = PlanCoreDiff(in.current, sparse.x);
    auto t3 = Clock::now();

    result.sparse_ms += MsBetween(t0, t1);
    result.dense_ms += MsBetween(t1, t2);
    result.diff_ms += MsBetween(t2, t3);
    result.grants += static_cast<int64_t>(plan.adds.size());

    // Carry the plan into the next cycle; steady executors keep whatever
    // they hold (targets pinned to their new totals, like the deadband).
    in.current = std::move(sparse.x);
    for (int j = 0; j < m; ++j) in.target[j] = in.current.Total(j);
  }
  result.sparse_ms /= cycles;
  result.dense_ms /= cycles;
  result.diff_ms /= cycles;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  BenchInit(argc, argv);
  Banner("Table 3", "Elasticutor throughput & scheduling time vs cluster "
                    "size");

  TablePrinter table({"nodes", "tput(tup/s)", "sched_time_ms", "measure_ms",
                      "targets_ms", "solve_ms", "diff_ms", "cycle_p99_ms",
                      "cycle_max_ms"});
  table.PrintHeader();

  for (int nodes : {8, 16, 32}) {
    SseOptions options;
    options.mode = SourceSpec::Mode::kSaturation;
    // Executors scale with the cluster: every one of the 12 processing
    // operators still needs >= 1 core per executor.
    options.executors_per_operator = std::max(2, nodes / 4);
    options.source_executors = nodes;
    auto workload = BuildSseWorkload(options, /*seed=*/42);
    ELASTICUTOR_CHECK(workload.ok());

    EngineConfig config;
    config.paradigm = Paradigm::kElastic;
    config.num_nodes = nodes;
    Engine engine(workload->topology, config);
    ELASTICUTOR_CHECK(engine.Setup().ok());

    ExperimentResult r =
        RunAndMeasure(&engine, Scaled(Seconds(6)), Scaled(Seconds(10)));
    const SchedulerTiming& t = engine.scheduler()->timing();
    table.PrintRow({FmtInt(nodes), Fmt(r.throughput_tps, 0),
                    Fmt(engine.scheduler()->avg_scheduling_wall_ms(), 2),
                    Fmt(t.Avg(t.measure_ms), 3), Fmt(t.Avg(t.targets_ms), 3),
                    Fmt(t.Avg(t.solve_ms), 3), Fmt(t.Avg(t.diff_ms), 3),
                    Fmt(t.P99CycleMs(), 2), Fmt(t.MaxCycleMs(), 2)});
  }
  std::printf("\npaper: 66.6k / 121.3k / 218.6k tuples/s; scheduling time "
              "4.1 / 5.2 / 5.7 ms (wall clock of the allocation + Algorithm "
              "1 computation)\n");

  std::printf("\nlarge-cluster control plane (synthetic saturation demands, "
              "sparse heap solver vs dense reference on identical inputs)\n");
  TablePrinter sweep({"nodes", "execs", "keys", "grants", "sched_time_ms",
                      "dense_ms", "speedup_vs_dense", "plan_diff_ms"});
  sweep.PrintHeader();
  for (int nodes : {128, 512, 2048}) {
    SweepResult r = RunControlPlaneSweep(nodes, /*cycles=*/3);
    double speedup = r.dense_ms / std::max(r.sparse_ms, 1e-6);
    sweep.PrintRow({FmtInt(nodes), FmtInt(nodes), FmtInt(r.keys),
                    FmtInt(r.grants), Fmt(r.sparse_ms, 3), Fmt(r.dense_ms, 2),
                    Fmt(speedup, 1), Fmt(r.diff_ms, 3)});
  }
  return 0;
}
