// The native workloads: one source thread and three worker threads of the
// multithreaded runtime, driven from this thread through the public Engine,
// NativeRuntime and telemetry surfaces.
//
//   saturate    closed loop, light operator, balance tick off: the producer
//               data path and the state lookup do most of the work.
//   skew-shift  open loop, heavy operator, 90% of tuples on four hot keys
//               whose shards start on one worker; the hot set jumps to the
//               next worker every second and the wall-busy balance tick
//               chases it.
//   rotation    open loop, light operator, 32 KiB shards with paced copy;
//               the driver moves every shard to the next worker as soon as
//               its previous move completed (protocol capacity).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <vector>

#include "elasticutor/elasticutor.h"
#include "harness.h"
#include "probe.h"
#include "report.h"
#include "workload.h"

namespace perfbench {

using namespace elasticutor;

namespace {

constexpr int kWorkers = 3;
constexpr int kHotKeys = 4;
constexpr int64_t kSampleEveryNs = 10'000'000;  // Telemetry sampling.
constexpr int64_t kWindowMs = 10;               // Windowed p99 width.
constexpr int64_t kWarmupNs = 1'000'000'000;

struct NativeSpec {
  double rate_per_sec = 0.0;  // 0 = closed loop.
  int spin_rounds = 0;
  int shards_per_worker = 16;
  int64_t shard_bytes = 1024;
  double copy_bytes_per_sec = 0.0;
  bool balance = false;
  bool rotate = false;
  double hot_share = 0.0;
  double phase_s = 0.0;
  int64_t latency_limit_ns = 0;
};

NativeSpec SpecFor(const std::string& name) {
  NativeSpec s;
  if (name == "skew-shift") {
    s.rate_per_sec = 500000.0;
    s.spin_rounds = 960;
    s.shards_per_worker = 64;
    s.shard_bytes = 32 * 1024;
    // Free handoff: with paced copy the routing flip runs on the driver
    // thread, which races the old owner's hold test (see README.md).
    s.copy_bytes_per_sec = 0.0;
    s.balance = true;
    s.hot_share = 0.9;
    s.phase_s = 1.0;
    s.latency_limit_ns = 5'000'000;
  } else if (name == "rotation") {
    s.rate_per_sec = 1000000.0;
    s.shards_per_worker = 16;
    s.shard_bytes = 32 * 1024;
    s.copy_bytes_per_sec = 256e6;
    s.rotate = true;
  }
  return s;
}

/// Per-phase hot keys: phase p puts kHotKeys keys on distinct shards that
/// worker p % kWorkers owns at start, cycling through each worker's shards
/// in a seeded order so a phase rarely reuses a shard an earlier phase made
/// hot (and the balancer may since have moved).
std::vector<std::vector<uint64_t>> HotSets(exec::NativeRuntime* native,
                                           OperatorId op, int phases,
                                           uint64_t seed) {
  Rng rng(seed, 0x686f74);
  const int shards = native->num_shards(op);
  std::vector<std::vector<uint64_t>> keys_of(shards);
  for (uint64_t key = 0; key < static_cast<uint64_t>(kNumKeys); ++key) {
    keys_of[native->shard_of_key(op, key)].push_back(key);
  }
  std::vector<std::vector<ShardId>> owned(kWorkers);
  for (ShardId s = 0; s < shards; ++s) {
    if (!keys_of[s].empty()) owned[native->worker_of_shard(op, s)].push_back(s);
  }
  for (auto& list : owned) {
    ELASTICUTOR_CHECK(static_cast<int>(list.size()) >= kHotKeys);
    for (size_t i = list.size() - 1; i > 0; --i) {
      std::swap(list[i], list[rng.NextBounded(static_cast<uint32_t>(i + 1))]);
    }
  }
  std::vector<size_t> cursor(kWorkers, 0);
  std::vector<std::vector<uint64_t>> hot(phases);
  for (int p = 0; p < phases; ++p) {
    const auto& list = owned[p % kWorkers];
    for (int i = 0; i < kHotKeys; ++i) {
      const ShardId s = list[cursor[p % kWorkers]++ % list.size()];
      const auto& keys = keys_of[s];
      hot[p].push_back(keys[rng.NextBounded(static_cast<uint32_t>(keys.size()))]);
    }
  }
  return hot;
}

struct TelemetryPoint {
  int64_t at_ns = 0;
  int64_t moves = 0;
  int64_t sunk = 0;
  double imbalance = 0.0;
};

}  // namespace

Report RunNative(const Options& opt) {
  const NativeSpec spec = SpecFor(opt.workload);
  const int64_t window_ns = static_cast<int64_t>(opt.seconds * 1e9);
  // Latency quantiles and throughput are medians over window segments: one
  // hot-set phase on skew-shift, one second elsewhere.
  const int64_t segment_ns = spec.phase_s > 0.0
                                 ? static_cast<int64_t>(spec.phase_s * 1e9)
                                 : 1'000'000'000;
  ProbeSet probes(opt.traced, static_cast<size_t>(window_ns / 1000000) + 1000,
                  static_cast<size_t>(window_ns / segment_ns) + 1,
                  size_t{1} << 17);
  ThreadProbe* driver = probes.Local("driver");
  const int64_t origin = NowNs();

  auto ctx = std::make_shared<RunContext>();
  ctx->probes = &probes;
  ctx->latency_limit_ns = spec.latency_limit_ns;
  ctx->segment_ns = segment_ns;
  ctx->spin_rounds = spec.spin_rounds;
  auto generator = std::make_shared<std::unique_ptr<Generator>>();

  MicroOptions mo;
  mo.num_keys = kNumKeys;
  mo.generator_executors = 1;
  mo.calculator_executors = kWorkers;
  mo.shards_per_executor = spec.shards_per_worker;
  mo.shard_state_bytes = spec.shard_bytes;
  mo.mode = SourceSpec::Mode::kSaturation;
  auto built = BuildMicroWorkload(mo, opt.seed);
  ELASTICUTOR_CHECK(built.ok());
  MicroWorkload wl = std::move(built).value();
  wl.topology.mutable_spec(wl.generator).source.factory =
      [generator](Rng*, SimTime) { return (*generator)->Make(); };
  wl.topology.mutable_spec(wl.calculator).logic = MakeLogic(ctx);
  const OperatorId calc = wl.calculator;

  EngineConfig config;
  config.paradigm = opt.static_paradigm ? Paradigm::kStatic : Paradigm::kElastic;
  config.backend = exec::BackendKind::kNative;
  config.num_nodes = 4;
  config.seed = opt.seed;
  config.native.workers_per_operator = kWorkers;
  config.native.migration_copy_bytes_per_sec = spec.copy_bytes_per_sec;
  if (spec.balance) {
    config.native.balance.period_ns = Millis(10);
    config.native.balance.use_wall_busy = true;
  }

  std::unique_ptr<Engine> engine;
  const double setup_s =
      TimedSetups(wl.topology, config, driver, opt.traced, &engine);
  exec::NativeRuntime* native = engine->native();
  ctx->clock_offset_ns = NowNs() - engine->exec()->now();

  StreamSpec stream;
  if (spec.hot_share > 0.0) {
    stream.hot_share = spec.hot_share;
    stream.tuples_per_phase =
        static_cast<int64_t>(spec.rate_per_sec * spec.phase_s);
    // Warm-up and the wait for the first shift take at most two phases.
    stream.hot = HotSets(native, calc,
                         static_cast<int>(opt.seconds / spec.phase_s) + 3,
                         opt.seed);
  }
  *generator = std::make_unique<Generator>(stream, opt.seed, spec.rate_per_sec,
                                           ctx.get());

  // ---- Driver duties ----
  int64_t sample_ns_sum = 0, samples = 0;
  auto sample = [&]() {
    const int64_t t0 = NowNs();
    exec::TelemetrySnapshot snap = engine->SampleTelemetry();
    const int64_t t1 = NowNs();
    sample_ns_sum += t1 - t0;
    ++samples;
    if (opt.traced) driver->AddSpan("SampleTelemetry", t0, t1);
    return snap;
  };
  std::vector<int64_t> prev_busy;
  std::vector<TelemetryPoint> points;
  auto record_point = [&](const exec::TelemetrySnapshot& snap) {
    std::vector<int64_t> busy;
    for (const auto& w : snap.workers) {
      if (w.op == calc) busy.push_back(w.busy_ns);
    }
    TelemetryPoint pt;
    pt.at_ns = NowNs();
    pt.moves = snap.reassignments_done;
    pt.sunk = snap.sink_count;
    pt.imbalance = BusyImbalance(prev_busy, busy);
    prev_busy = std::move(busy);
    points.push_back(pt);
  };

  std::vector<int> target(native->num_shards(calc), -1);
  int64_t reassign_calls = 0, reassign_ok = 0, reassign_ns = 0;
  auto post_moves = [&]() {
    for (ShardId s = 0; s < static_cast<ShardId>(target.size()); ++s) {
      const int owner = native->shard_owner(calc, s);
      if (target[s] >= 0 && owner != target[s]) continue;  // Not flipped yet.
      const int to = (owner + 1) % kWorkers;
      const int64_t t0 = NowNs();
      const Status st = native->ReassignShard(calc, s, to);
      const int64_t t1 = NowNs();
      reassign_ns += t1 - t0;
      ++reassign_calls;
      if (opt.traced) driver->AddSpan("ReassignShard", t0, t1);
      if (st.ok()) {
        ++reassign_ok;
        target[s] = to;
      }
    }
  };

  // Runs the engine until `until` (bench clock), doing the driver duties.
  int64_t next_sample = 0;
  auto drive = [&](int64_t until, bool measure) {
    const int64_t slice = spec.rotate ? 500'000 : kSampleEveryNs;
    for (int64_t now = NowNs(); now < until; now = NowNs()) {
      const int64_t t0 = now;
      engine->RunFor(std::min(slice, until - now));
      if (opt.traced) driver->AddSpan("RunFor", t0, NowNs());
      if (spec.rotate) post_moves();
      if (measure && NowNs() >= next_sample) {
        record_point(sample());
        next_sample += kSampleEveryNs;
      }
    }
  };

  // ---- Run: warm-up, measured window, drain ----
  engine->Start();
  drive(NowNs() + kWarmupNs, false);

  // The window opens at a hot-set shift on skew-shift, so every segment
  // holds one shift and what follows it.
  int64_t w0 = NowNs();
  if (spec.phase_s > 0.0) {
    const int64_t t0 = (*generator)->t0();
    w0 = t0 + (w0 - t0 + segment_ns - 1) / segment_ns * segment_ns;
  }
  const int64_t w1 = w0 + window_ns;
  ctx->window_end.store(w1);
  ctx->window_start.store(w0);
  drive(w0, false);
  const exec::TelemetrySnapshot first = sample();
  record_point(first);
  next_sample = NowNs() + kSampleEveryNs;
  const size_t pauses_before = native->migration_pauses().size();
  drive(w1, true);
  const exec::TelemetrySnapshot last = sample();
  record_point(last);
  const int64_t w_end = NowNs();
  std::vector<SimDuration> pauses = native->migration_pauses();
  pauses.erase(pauses.begin(),
               pauses.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(pauses_before, pauses.size())));

  engine->StopSources();
  engine->RunToCompletion();
  const exec::TelemetrySnapshot final_snap = engine->SampleTelemetry();

  // ---- Correctness: sequence checks, conservation, reference pass ----
  const int64_t emitted = (*generator)->emitted();
  int64_t seq_errors = 0;
  for (const auto& p : probes.all()) seq_errors += p->seq_errors;
  const int64_t lost_or_dup = std::llabs(final_snap.sink_count - emitted);
  const std::vector<int64_t> ref = ReferenceCounts(stream, opt.seed, emitted);
  std::vector<int64_t> count(kNumKeys, 0), last_seq(kNumKeys, 0);
  std::vector<int> copies(kNumKeys, 0);
  for (int w = 0; w < native->num_workers(calc); ++w) {
    native->worker_store(calc, w)->ForEachShard(
        [&](ShardId, const ShardState& shard) {
          for (const auto& [key, value] : shard.entries) {
            const KeyState* ks = std::any_cast<KeyState>(&value);
            if (ks == nullptr || key >= static_cast<uint64_t>(kNumKeys)) {
              ++seq_errors;
              continue;
            }
            count[key] = ks->count;
            last_seq[key] = ks->last_seq;
            ++copies[key];
          }
        });
  }
  int64_t key_mismatches = 0;
  for (int k = 0; k < kNumKeys; ++k) {
    const bool present = ref[k] > 0;
    if (copies[k] != (present ? 1 : 0) || count[k] != ref[k] ||
        last_seq[k] != ref[k]) {
      ++key_mismatches;
    }
  }
  const int64_t in_flight = final_snap.migrations_in_flight;

  Report r;
  r.attempted = std::max<int64_t>(emitted, 1);
  r.failed = seq_errors + lost_or_dup + key_mismatches + in_flight;
  r.correct = r.failed == 0 && emitted > 0;

  // ---- Metrics ----
  LogHist latency, transit, lag;
  int64_t logic_calls = 0, logic_ns = 0, lookup_ns = 0;
  int64_t keygen_calls = 0, keygen_ns = 0, emit_gaps = 0, emit_ns = 0;
  std::vector<int64_t> bin_total(probes.bins(), 0), bin_over(probes.bins(), 0);
  for (const auto& p : probes.all()) {
    latency.Merge(p->latency);
    transit.Merge(p->transit);
    lag.Merge(p->lag);
    logic_calls += p->logic_calls;
    logic_ns += p->logic_ns;
    lookup_ns += p->lookup_ns;
    keygen_calls += p->keygen_calls;
    keygen_ns += p->keygen_ns;
    emit_gaps += p->emit_gaps;
    emit_ns += p->emit_ns;
    for (size_t i = 0; i < probes.bins(); ++i) {
      bin_total[i] += p->bin_total[i];
      bin_over[i] += p->bin_over[i];
    }
  }
  const double wall_s = static_cast<double>(w_end - points.front().at_ns) / 1e9;
  const int64_t sunk = last.sink_count - first.sink_count;
  const int64_t moves = last.reassignments_done - first.reassignments_done;
  std::vector<int64_t> point_at, point_sunk;
  for (const auto& pt : points) {
    point_at.push_back(pt.at_ns);
    point_sunk.push_back(pt.sunk);
  }
  auto& m = r.metrics;
  m["throughput_tps"] = MedianSegmentRate(
      point_at, point_sunk, segment_ns, [&](size_t a, size_t b) {
        return static_cast<double>(point_at[b] - point_at[a]) / 1e9;
      });
  m["latency_p50_ms"] = SegmentQuantileMs(probes, 0.50);
  m["latency_p90_ms"] = SegmentQuantileMs(probes, 0.90);
  m["latency_p99_ms"] = SegmentQuantileMs(probes, 0.99);
  m["setup_s"] = setup_s;

  auto per = [](int64_t total, int64_t n) {
    return n > 0 ? static_cast<double>(total) / static_cast<double>(n) : 0.0;
  };
  m["check.latency_samples"] = static_cast<double>(latency.count());
  m["check.failed_share"] = static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  m["workload.keygen_ns"] = per(keygen_ns, keygen_calls);
  m["workload.lag_p99_ms"] = lag.Quantile(0.99) / 1e6;
  m["exec.source_emit_ns"] = per(emit_ns, emit_gaps);
  m["exec.transit_p50_us"] = transit.Quantile(0.50) / 1e3;
  m["exec.transit_p99_us"] = transit.Quantile(0.99) / 1e3;
  m["exec.worker_busy_share"] =
      static_cast<double>(last.total_busy_ns - first.total_busy_ns) /
      (kWorkers * static_cast<double>(w_end - points.front().at_ns));
  std::vector<double> pause_ms;
  for (SimDuration p : pauses) pause_ms.push_back(static_cast<double>(p) / 1e6);
  m["exec.pause_p50_ms"] = QuantileOf(pause_ms, 0.50);
  m["exec.pause_p99_ms"] = QuantileOf(pause_ms, 0.99);
  m["exec.reassign_call_us"] = per(reassign_ns, reassign_calls) / 1e3;
  m["exec.reassign_accept_share"] =
      reassign_calls > 0 ? static_cast<double>(reassign_ok) / static_cast<double>(reassign_calls) : 0.0;
  m["exec.telemetry_sample_us"] = per(sample_ns_sum, samples) / 1e3;
  m["state.lookup_ns"] = per(lookup_ns, logic_calls);
  m["engine.logic_ns"] = per(logic_ns, logic_calls);
  std::vector<double> imbalance;
  for (const auto& pt : points) {
    if (pt.imbalance > 0.0) imbalance.push_back(pt.imbalance);
  }
  m["elastic.imbalance_p50"] = MedianOf(imbalance);
  m["elastic.moves_per_s"] = static_cast<double>(moves) / wall_s;
  m["elastic.reassigns"] = static_cast<double>(moves);

  // Recovery after each hot-set shift fully inside the window: time until
  // the p99 of every sliding 10 ms window stays under the latency limit
  // (a window with no completions counts as over). Censored at the phase
  // length when it never recovers.
  double recovery_ms = 0.0, settled_moves_per_s = 0.0;
  if (spec.hot_share > 0.0) {
    const int64_t t0 = (*generator)->t0();
    const int64_t phase_ns = static_cast<int64_t>(spec.phase_s * 1e9);
    std::vector<int64_t> pre_total(bin_total.size() + 1, 0), pre_over(bin_over.size() + 1, 0);
    for (size_t i = 0; i < bin_total.size(); ++i) {
      pre_total[i + 1] = pre_total[i] + bin_total[i];
      pre_over[i + 1] = pre_over[i] + bin_over[i];
    }
    std::vector<double> recoveries;
    double settled_moves = 0.0, settled_s = 0.0;
    for (int64_t shift = t0 + phase_ns; shift + phase_ns <= w1; shift += phase_ns) {
      if (shift < w0) continue;
      const int64_t s_ms = (shift - w0) / 1000000;
      const int64_t e_ms = s_ms + phase_ns / 1000000;
      int64_t last_bad = -1;
      for (int64_t i = s_ms; i + kWindowMs <= e_ms; ++i) {
        const int64_t tot = pre_total[i + kWindowMs] - pre_total[i];
        const int64_t over = pre_over[i + kWindowMs] - pre_over[i];
        if (tot == 0 || over * 100 > tot) last_bad = i;
      }
      const double rec = last_bad < 0 ? 0.0
                                      : static_cast<double>(last_bad + kWindowMs - s_ms);
      recoveries.push_back(rec);
      const int64_t settled_from = shift + static_cast<int64_t>(rec * 1e6);
      for (size_t i = 1; i < points.size(); ++i) {
        if (points[i].at_ns > settled_from && points[i].at_ns <= shift + phase_ns) {
          settled_moves += static_cast<double>(points[i].moves - points[i - 1].moves);
        }
      }
      settled_s += static_cast<double>(shift + phase_ns - settled_from) / 1e9;
    }
    recovery_ms = MedianOf(recoveries);
    settled_moves_per_s = settled_s > 0.0 ? settled_moves / settled_s : 0.0;
  }
  m["elastic.recovery_ms"] = recovery_ms;
  m["elastic.settled_moves_per_s"] = settled_moves_per_s;

  // Simulator-only counters (Engine::Perf on this backend counts timer
  // callbacks, not routed tuples).
  for (const char* name : {"sim.events_per_tuple", "sim.allocs_per_tuple",
                           "net.messages_per_tuple", "sim.wall_ns_per_event",
                           "sim.virtual_tps", "scheduler.cycle_avg_ms",
                           "scheduler.cycle_p99_ms"}) {
    m[name] = 0.0;
  }

  std::printf("run: %s paradigm=%s emitted=%lld sunk=%lld window=%.3fs "
              "moves=%lld latency_samples=%lld seq_errors=%lld "
              "key_mismatches=%lld lost_or_dup=%lld\n",
              opt.workload.c_str(), ParadigmName(config.paradigm),
              static_cast<long long>(emitted), static_cast<long long>(sunk),
              wall_s, static_cast<long long>(moves),
              static_cast<long long>(latency.count()),
              static_cast<long long>(seq_errors),
              static_cast<long long>(key_mismatches),
              static_cast<long long>(lost_or_dup));
  std::printf("segment p99 ms:");
  for (size_t i = 0; i < probes.segments(); ++i) {
    LogHist merged;
    for (const auto& p : probes.all()) merged.Merge(p->segment_latency[i]);
    if (merged.count() > 0) std::printf(" %.2f", merged.Quantile(0.99) / 1e6);
  }
  std::printf("\n");
  if (opt.traced && !opt.trace_path.empty()) {
    int64_t dropped = 0;
    for (const auto& p : probes.all()) dropped += p->spans_dropped;
    if (!WriteChromeTrace(opt.trace_path, probes, origin)) {
      std::fprintf(stderr, "cannot write trace %s\n", opt.trace_path.c_str());
      r.correct = false;
    } else {
      std::printf("trace: %s (%lld spans dropped)\n", opt.trace_path.c_str(),
                  static_cast<long long>(dropped));
    }
  }
  m["peak_rss_mb"] = PeakRssMb();
  return r;
}

}  // namespace perfbench
