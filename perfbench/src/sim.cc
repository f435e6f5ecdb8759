// The simulator workload, sim-omega16: the §5.1 micro-benchmark defaults
// (32 nodes x 8 cores, 32 generator and 32 calculator executors, 256 shards
// each), elastic paradigm with the global scheduler on, and the paper's
// workload dynamics at ω = 16 key-popularity shuffles per minute. It is the
// only workload that runs the simulator, network, scheduler, cluster and
// scenario layers.
//
// Throughput is simulated sink tuples per WALL second (simulator speed);
// latencies are in virtual time.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <vector>

#include "elasticutor/elasticutor.h"
#include "harness.h"
#include "probe.h"
#include "report.h"
#include "workload.h"

namespace perfbench {

using namespace elasticutor;

namespace {

constexpr double kOmegaPerMinute = 16.0;
constexpr int64_t kWarmupNs = 10'000'000'000;  // Virtual.
constexpr int64_t kSliceNs = 100'000'000;      // Virtual telemetry period.
constexpr int64_t kSegmentNs = 4'000'000'000;  // Virtual; medians are per segment.
/// Virtual seconds simulated per requested wall second (about real time x4
/// on a 4-vCPU x86-64 host).
constexpr double kVirtualPerWall = 4.0;

/// Wraps the workload's own factory: counts generated tuples per key,
/// remembers each source executor's last key (a stopped source drops the
/// one tuple it may still hold unrouted), names each tuple for its spans,
/// and times the factory body in the traced run.
struct SimSource {
  std::function<Tuple(Rng*, SimTime)> inner;
  RunContext* ctx = nullptr;
  std::vector<int64_t> generated;
  std::unordered_map<const Rng*, uint64_t> last_key;
  int64_t k = 0;
  int64_t last_exit = 0;

  Tuple Make(Rng* rng, SimTime now) {
    ThreadProbe* p = ctx->probes->Local("sim");
    const bool traced = ctx->probes->traced();
    const int64_t entry = traced ? NowNs() : 0;
    if (traced && last_exit != 0) {
      p->emit_ns += entry - last_exit;
      ++p->emit_gaps;
    }
    Tuple t = inner(rng, now);
    t.payload.f1 = static_cast<double>(k);
    ++generated[t.key];
    last_key[rng] = t.key;
    if (traced) {
      const int64_t exit = NowNs();
      p->keygen_ns += exit - entry;
      ++p->keygen_calls;
      if (k % kSpanEvery == 0) p->AddSpan("factory", entry, exit, k + 1);
      last_exit = exit;
    }
    ++k;
    return t;
  }
};

}  // namespace

Report RunSim(const Options& opt) {
  const int64_t window_virtual_ns =
      static_cast<int64_t>(opt.seconds * kVirtualPerWall * 1e9);
  ProbeSet probes(opt.traced,
                  static_cast<size_t>(window_virtual_ns / 1000000) + 1000,
                  static_cast<size_t>(window_virtual_ns / kSegmentNs) + 1,
                  size_t{1} << 17);
  ThreadProbe* driver = probes.Local("sim");
  const int64_t origin = NowNs();

  MicroOptions mo;  // §5.1 defaults.
  auto built = BuildMicroWorkload(mo, opt.seed);
  ELASTICUTOR_CHECK(built.ok());
  MicroWorkload wl = std::move(built).value();

  auto ctx = std::make_shared<RunContext>();
  ctx->probes = &probes;
  ctx->segment_ns = kSegmentNs;
  ctx->check_seq = false;  // 32 sources: per-key order is per source only.
  std::vector<int64_t> observed(mo.num_keys, 0);
  ctx->observed_counts = &observed;
  auto source = std::make_shared<SimSource>();
  source->inner = wl.topology.spec(wl.generator).source.factory;
  source->ctx = ctx.get();
  source->generated.assign(mo.num_keys, 0);
  wl.topology.mutable_spec(wl.generator).source.factory =
      [source](Rng* rng, SimTime now) { return source->Make(rng, now); };
  wl.topology.mutable_spec(wl.calculator).logic = MakeLogic(ctx);

  EngineConfig config;
  config.paradigm = Paradigm::kElastic;
  config.seed = opt.seed;

  std::unique_ptr<Engine> engine;
  const double setup_s =
      TimedSetups(wl.topology, config, driver, opt.traced, &engine);
  ctx->virtual_clock = engine->exec();
  ScenarioDriver dynamics(scn::MicroDynamics(kOmegaPerMinute), engine.get(),
                          wl.keys);
  dynamics.Install();

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
  auto run_for = [&](int64_t virtual_ns) {
    const int64_t t0 = NowNs();
    engine->RunFor(virtual_ns);
    if (opt.traced) driver->AddSpan("RunFor", t0, NowNs());
  };

  engine->Start();
  run_for(kWarmupNs);
  engine->ResetMetricsAfterWarmup();
  DynamicScheduler* scheduler = engine->scheduler();
  const int64_t cycles_before = scheduler != nullptr ? scheduler->timing().cycles() : 0;
  const exec::TelemetrySnapshot first = sample();
  const int64_t v0 = engine->exec()->now();
  const int64_t w0 = NowNs();
  ctx->window_start.store(v0);
  std::vector<double> imbalance;
  std::vector<int64_t> prev_busy;
  for (const auto& w : first.workers) prev_busy.push_back(w.busy_ns);
  exec::TelemetrySnapshot last = first;
  std::vector<int64_t> slice_virtual{v0}, slice_wall{w0}, slice_sunk{0};
  // The simulator is one thread: move it to the next CPU every slice so its
  // speed averages over the host's vCPUs instead of following one of them.
  CpuRotation rotation;
  while (engine->exec()->now() < v0 + window_virtual_ns) {
    rotation.Next();
    run_for(std::min(kSliceNs, v0 + window_virtual_ns - engine->exec()->now()));
    slice_virtual.push_back(engine->exec()->now());
    slice_wall.push_back(NowNs());
    slice_sunk.push_back(engine->metrics()->sink_count());
    last = sample();
    std::vector<int64_t> busy;
    for (const auto& w : last.workers) busy.push_back(w.busy_ns);
    const double ratio = BusyImbalance(prev_busy, busy);
    if (ratio > 0.0) imbalance.push_back(ratio);
    prev_busy = std::move(busy);
  }
  const int64_t v1 = engine->exec()->now();
  const int64_t w1 = NowNs();
  ctx->window_end.store(v1);
  const PerfCounters perf = engine->Perf();
  const int64_t sunk = engine->metrics()->sink_count();
  std::vector<double> pause_ms;
  for (const ElasticityOp& op : engine->metrics()->elasticity_ops()) {
    pause_ms.push_back(static_cast<double>(op.pause_ns) / 1e6);
  }
  std::vector<double> cycle_ms;
  if (scheduler != nullptr) {
    const auto& all = scheduler->timing().cycle_ms;
    cycle_ms.assign(all.begin() + cycles_before, all.end());
  }

  // Drain: stop the sources and run until the sinks stop moving. The state
  // counts must then add up to what the sources routed, and per key fall
  // short of what was generated only by tuples a stopped source still held.
  engine->StopSources();
  for (int64_t before = -1; engine->metrics()->sink_count() != before;) {
    before = engine->metrics()->sink_count();
    engine->RunFor(Seconds(5));
  }
  int64_t emitted = 0, counted = 0, mismatched = 0;
  for (const auto& spout : engine->source_executors(wl.generator)) {
    emitted += spout->emitted();
  }
  std::vector<int64_t> unrouted_bound(mo.num_keys, 0);
  for (const auto& [rng, key] : source->last_key) ++unrouted_bound[key];
  for (int k = 0; k < mo.num_keys; ++k) {
    counted += observed[k];
    const int64_t missing = source->generated[k] - observed[k];
    if (missing < 0 || missing > unrouted_bound[k]) mismatched += std::llabs(missing);
  }
  mismatched += std::llabs(emitted - counted);

  Report r;
  r.attempted = std::max<int64_t>(emitted, 1);
  r.failed = mismatched;
  r.correct = mismatched == 0 && emitted > 0;

  LogHist latency;
  int64_t logic_calls = 0, logic_ns = 0, lookup_ns = 0;
  int64_t keygen_calls = 0, keygen_ns = 0, emit_gaps = 0, emit_ns = 0;
  for (const auto& p : probes.all()) {
    latency.Merge(p->latency);
    logic_calls += p->logic_calls;
    logic_ns += p->logic_ns;
    lookup_ns += p->lookup_ns;
    keygen_calls += p->keygen_calls;
    keygen_ns += p->keygen_ns;
    emit_gaps += p->emit_gaps;
    emit_ns += p->emit_ns;
  }
  auto per = [](int64_t total, int64_t n) {
    return n > 0 ? static_cast<double>(total) / static_cast<double>(n) : 0.0;
  };
  const double wall_s = static_cast<double>(w1 - w0) / 1e9;
  const double virtual_s = static_cast<double>(v1 - v0) / 1e9;
  auto& m = r.metrics;
  m["throughput_tps"] = MedianSegmentRate(
      slice_virtual, slice_sunk, kSegmentNs, [&](size_t a, size_t b) {
        return static_cast<double>(slice_wall[b] - slice_wall[a]) / 1e9;
      });
  m["latency_p50_ms"] = SegmentQuantileMs(probes, 0.50);
  m["latency_p90_ms"] = SegmentQuantileMs(probes, 0.90);
  m["latency_p99_ms"] = SegmentQuantileMs(probes, 0.99);
  m["setup_s"] = setup_s;

  m["check.latency_samples"] = static_cast<double>(latency.count());
  m["check.failed_share"] = static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  m["workload.keygen_ns"] = per(keygen_ns, keygen_calls);
  m["exec.source_emit_ns"] = per(emit_ns, emit_gaps);
  // Virtual: creation -> completion (logic runs at completion here).
  m["exec.transit_p50_us"] = latency.Quantile(0.50) / 1e3;
  m["exec.transit_p99_us"] = latency.Quantile(0.99) / 1e3;
  m["exec.worker_busy_share"] =
      static_cast<double>(last.total_busy_ns - first.total_busy_ns) /
      (static_cast<double>(config.total_cores()) * static_cast<double>(v1 - v0));
  m["exec.pause_p50_ms"] = QuantileOf(pause_ms, 0.50);
  m["exec.pause_p99_ms"] = QuantileOf(pause_ms, 0.99);
  m["exec.telemetry_sample_us"] = per(sample_ns_sum, samples) / 1e3;
  m["state.lookup_ns"] = per(lookup_ns, logic_calls);
  m["engine.logic_ns"] = per(logic_ns, logic_calls);
  m["elastic.imbalance_p50"] = MedianOf(imbalance);
  m["elastic.moves_per_s"] = static_cast<double>(pause_ms.size()) / virtual_s;
  m["elastic.reassigns"] = static_cast<double>(pause_ms.size());
  m["sim.events_per_tuple"] = perf.events_per_tuple();
  m["sim.allocs_per_tuple"] = perf.heap_allocs_per_tuple();
  m["net.messages_per_tuple"] = perf.messages_per_tuple();
  m["sim.wall_ns_per_event"] =
      perf.events_fired > 0 ? static_cast<double>(w1 - w0) / static_cast<double>(perf.events_fired) : 0.0;
  m["sim.virtual_tps"] = static_cast<double>(sunk) / virtual_s;
  double cycle_sum = 0.0;
  for (double c : cycle_ms) cycle_sum += c;
  m["scheduler.cycle_avg_ms"] =
      cycle_ms.empty() ? 0.0 : cycle_sum / static_cast<double>(cycle_ms.size());
  m["scheduler.cycle_p99_ms"] = QuantileOf(cycle_ms, 0.99);

  std::printf("run: %s virtual=%.1fs wall=%.3fs sunk=%lld emitted=%lld "
              "counted=%lld reassigns=%zu scheduler_cycles=%zu "
              "latency_samples=%lld mismatched=%lld\n",
              opt.workload.c_str(), virtual_s, wall_s,
              static_cast<long long>(sunk), static_cast<long long>(emitted),
              static_cast<long long>(counted),
              pause_ms.size(), cycle_ms.size(),
              static_cast<long long>(latency.count()),
              static_cast<long long>(mismatched));
  if (opt.traced && !opt.trace_path.empty()) {
    if (!WriteChromeTrace(opt.trace_path, probes, origin)) {
      std::fprintf(stderr, "cannot write trace %s\n", opt.trace_path.c_str());
      r.correct = false;
    }
  }
  m["peak_rss_mb"] = PeakRssMb();
  return r;
}

}  // namespace perfbench
