// The benchmark's side of the dataflow: seeded key streams, the open-loop
// pacer, the source factory that stamps each tuple, the sink logic that
// checks and times it, and the single-threaded reference pass.
//
// Tuple stamps (Tuple::payload):
//   i0  due time of the tuple on the open-loop schedule (0 = closed loop)
//   i1  per-key sequence number, 1, 2, 3, ... in generation order
//   f1  index of the tuple in the stream (names its trace spans)
#pragma once

#include <time.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "elasticutor/elasticutor.h"
#include "probe.h"

namespace perfbench {

using elasticutor::StateAccessor;
using elasticutor::Tuple;

constexpr int kNumKeys = 4096;
/// One tuple in this many gets trace spans in the traced run.
constexpr int64_t kSpanEvery = 4096;

/// What keys a stream draws. Outside the hot set keys follow a Zipf law over
/// kNumKeys keys whose rank order is shuffled by the seed.
struct StreamSpec {
  double zipf_skew = 0.5;
  /// Share of tuples drawn uniformly from the current phase's hot keys.
  double hot_share = 0.0;
  /// The hot set moves to the next entry of `hot` every this many tuples.
  int64_t tuples_per_phase = 0;
  std::vector<std::vector<uint64_t>> hot;
};

/// Deterministic key sequence: the same spec and seed give the same keys.
class KeyStream {
 public:
  KeyStream(const StreamSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed, 0x6b657973), keys_(kNumKeys, spec.zipf_skew, seed) {
    keys_.Shuffle();
  }
  /// Key of tuple `k` (call with k = 0, 1, 2, ... in order).
  uint64_t Next(int64_t k) {
    if (spec_.hot_share > 0.0 && rng_.NextDouble() < spec_.hot_share) {
      const auto& hot =
          spec_.hot[static_cast<size_t>(k / spec_.tuples_per_phase) %
                    spec_.hot.size()];
      return hot[rng_.NextBounded(static_cast<uint32_t>(hot.size()))];
    }
    return keys_.SampleKey(&rng_);
  }

 private:
  StreamSpec spec_;
  elasticutor::Rng rng_;
  elasticutor::DynamicKeySpace keys_;
};

/// Per-run settings shared by the factory and the logic (read-only while
/// the dataflow runs, except the window bounds).
struct RunContext {
  ProbeSet* probes = nullptr;
  /// Measured window on the logic's clock; samples outside it are dropped.
  std::atomic<int64_t> window_start{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> window_end{std::numeric_limits<int64_t>::max()};
  /// Length of the window segments latency quantiles are taken over.
  int64_t segment_ns = 1'000'000'000;
  /// Latency limit of the windowed p99 (recovery).
  int64_t latency_limit_ns = 0;
  /// Native: bench clock minus engine clock (converts Tuple::created_at).
  int64_t clock_offset_ns = 0;
  /// Simulator: the logic times tuples on this virtual clock instead.
  elasticutor::exec::ExecutionBackend* virtual_clock = nullptr;
  /// Check per-key sequence stamps (needs a single source).
  bool check_seq = true;
  /// Hash rounds of CPU work per tuple (0 = light operator).
  int spin_rounds = 0;
  /// Simulator: last per-key count the logic wrote (the reference compares
  /// it with what the source emitted).
  std::vector<int64_t>* observed_counts = nullptr;

  bool InWindow(int64_t t) const {
    return t >= window_start.load(std::memory_order_relaxed) &&
           t < window_end.load(std::memory_order_relaxed);
  }
};

/// Operator state per key.
struct KeyState {
  int64_t count = 0;
  int64_t last_seq = 0;
  uint64_t acc = 0;
};

inline uint64_t SpinHash(uint64_t h, int rounds) {
  h ^= 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < rounds; ++i) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 29;
  }
  return h;
}

/// The source side: one instance per source thread. Open loop when
/// `rate_per_sec` > 0 — tuple k is due at t0 + k / rate; the generator sleeps
/// while ahead and emits overdue tuples back to back, never spinning.
class Generator {
 public:
  Generator(const StreamSpec& spec, uint64_t seed, double rate_per_sec,
            RunContext* ctx)
      : stream_(spec, seed), seq_(kNumKeys, 0),
        period_ns_(rate_per_sec > 0.0 ? 1e9 / rate_per_sec : 0.0), ctx_(ctx) {}

  Tuple Make() {
    ThreadProbe* p = ctx_->probes->Local("source");
    const bool traced = ctx_->probes->traced();
    const bool open = period_ns_ > 0.0;
    const int64_t entry = traced || open ? NowNs() : 0;
    if (traced && last_exit_ != 0) {
      p->emit_ns += entry - last_exit_;
      ++p->emit_gaps;
    }
    int64_t due = 0;
    int64_t body_start = entry;
    if (open) {
      if (k_ == 0) t0_.store(entry, std::memory_order_release);
      due = t0_.load(std::memory_order_relaxed) +
            static_cast<int64_t>(static_cast<double>(k_) * period_ns_);
      if (due > entry) {
        timespec ts{static_cast<time_t>(due / 1000000000),
                    static_cast<long>(due % 1000000000)};
        while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                               nullptr) != 0) {
        }
        body_start = NowNs();
      }
      if (ctx_->InWindow(due)) p->lag.Record(body_start - due);
    }
    Tuple t;
    t.key = stream_.Next(k_);
    t.size_bytes = 64;
    t.payload.i0 = due;
    t.payload.i1 = ++seq_[t.key];
    t.payload.f1 = static_cast<double>(k_);
    if (traced) {
      const int64_t exit = NowNs();
      p->keygen_ns += exit - body_start;
      ++p->keygen_calls;
      if (k_ % kSpanEvery == 0) p->AddSpan("factory", body_start, exit, k_ + 1);
      last_exit_ = exit;
    }
    ++k_;
    emitted_.store(k_, std::memory_order_release);
    return t;
  }

  /// Tuples returned so far (each one is emitted by the runtime).
  int64_t emitted() const { return emitted_.load(std::memory_order_acquire); }
  /// Start of the open-loop schedule (0 before the first tuple).
  int64_t t0() const { return t0_.load(std::memory_order_acquire); }

 private:
  KeyStream stream_;
  std::vector<int64_t> seq_;
  const double period_ns_;
  RunContext* ctx_;
  int64_t k_ = 0;
  int64_t last_exit_ = 0;
  std::atomic<int64_t> t0_{0};
  std::atomic<int64_t> emitted_{0};
};

/// The sink logic: per-key counter with a sequence check, optional CPU work,
/// and the latency sample.
inline elasticutor::OperatorLogic MakeLogic(std::shared_ptr<RunContext> ctx) {
  return [ctx](const Tuple& t, StateAccessor& state, elasticutor::EmitContext*) {
    ThreadProbe* p = ctx->probes->Local("worker");
    const bool traced = ctx->probes->traced();
    const int64_t entry = traced ? NowNs() : 0;
    KeyState* ks = state.GetOrCreate<KeyState>();
    const int64_t looked_up = traced ? NowNs() : 0;
    if (ctx->check_seq && t.payload.i1 != ks->last_seq + 1) ++p->seq_errors;
    ks->last_seq = t.payload.i1;
    ++ks->count;
    if (ctx->spin_rounds > 0) {
      ks->acc = SpinHash(ks->acc ^ t.key, ctx->spin_rounds);
    }
    if (ctx->observed_counts != nullptr) {
      (*ctx->observed_counts)[t.key] = ks->count;
    }
    const bool virt = ctx->virtual_clock != nullptr;
    const int64_t created = t.created_at + ctx->clock_offset_ns;
    const int64_t end = virt ? ctx->virtual_clock->now() : NowNs();
    if (ctx->InWindow(end)) {
      const int64_t latency = end - (t.payload.i0 != 0 ? t.payload.i0 : created);
      p->latency.Record(latency);
      const int64_t since = end - ctx->window_start.load(std::memory_order_relaxed);
      const size_t segment = static_cast<size_t>(since / ctx->segment_ns);
      if (segment < p->segment_latency.size()) {
        p->segment_latency[segment].Record(latency);
      }
      const size_t bin = static_cast<size_t>(since / 1000000);
      if (bin < p->bin_total.size()) {
        ++p->bin_total[bin];
        if (latency > ctx->latency_limit_ns) ++p->bin_over[bin];
      }
      if (traced) {
        const int64_t done = NowNs();
        // Transit on the simulator is virtual (creation -> completion).
        p->transit.Record(virt ? latency : entry - created);
        p->lookup_ns += looked_up - entry;
        p->logic_ns += done - looked_up;
        ++p->logic_calls;
        const int64_t k = static_cast<int64_t>(t.payload.f1);
        if (k % kSpanEvery == 0) {
          p->AddSpan("logic", entry, done, 0, k + 1);
          p->AddSpan("GetOrCreate", entry, looked_up);
        }
      }
    }
  };
}

/// Single-threaded reference: per-key tuple counts of the first `n` tuples
/// of the stream.
inline std::vector<int64_t> ReferenceCounts(const StreamSpec& spec,
                                            uint64_t seed, int64_t n) {
  KeyStream stream(spec, seed);
  std::vector<int64_t> counts(kNumKeys, 0);
  for (int64_t k = 0; k < n; ++k) ++counts[stream.Next(k)];
  return counts;
}

}  // namespace perfbench
