// Bounded MPSC channel of tuple micro-batches — the unit of cross-thread
// handoff in the native runtime (the micro-batches of the simulated data
// path travel here between OS threads).
//
// Semantics:
//  * Multiple producers, one consumer. Each producer registers up front
//    (producer count is fixed at wiring time) and calls CloseProducer()
//    exactly once when it finishes; when the last producer closes and the
//    ring drains, Pop() returns nullptr and the consumer shuts down — the
//    dataflow quiesces topologically, no poison pills.
//  * Push blocks while the ring is full (bounded queue => back-pressure
//    propagates upstream to the sources, mirroring the simulator's
//    reservation-based admission).
//  * A mutex guards the ring: batches amortize the lock over
//    EngineConfig::native.data_path.batch_tuples tuples, so the lock is
//    taken ~1/batch_tuples per tuple.
//  * Spin-then-park handoff. An empty-handed Pop() first spins, outside the
//    lock and with a pause instruction, on a signal counter that Push,
//    Kick, CloseProducer and Abort bump, for at most `spin` (default
//    kDefaultPopSpin, about one futex park/wake round trip); it reads the
//    clock only every kSpinClockEvery polls. A batch that lands within the
//    spin is taken with no futex wait on the consumer side, and — because
//    producers notify only a consumer that is actually parked — no wake-up
//    system call on the producer side. Past the bound the consumer parks on
//    the condvar; it re-checks the ring under the mutex first, so a signal
//    published between the spin and the park is never lost.
//  * Counters: push_blocks (producer found the ring full) and pop_waits
//    (consumer parked) are the channel-contention signal bench_native_speed
//    reports; a Pop satisfied during the spin does not count as a wait.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

#include "common/status.h"

namespace elasticutor {
namespace exec {

struct TupleBatchStorage;  // exec/batch_pool.h

/// Cache-line aligned: the producers and the consumer write it on every
/// batch, and alignment keeps heap neighbours (the owning worker, the next
/// allocation) off its lines, so the data path's speed does not depend on
/// the sizes of unrelated objects allocated next to it.
class alignas(64) MpscChannel {
 public:
  /// Default bound of Pop()'s pre-park spin: about one park/wake round trip
  /// (futex wait + wake + the IPI that reschedules the sleeper). Of 10, 20
  /// and 50 us, 20 us gave the highest saturation throughput of the native
  /// benchmark on a 4-vCPU x86-64 host; shorter bounds park workers between
  /// back-to-back batches.
  static constexpr std::chrono::nanoseconds kDefaultPopSpin =
      std::chrono::microseconds(20);

  /// `capacity` bounds the number of in-flight batches; `producers` is the
  /// number of CloseProducer() calls after which the channel is closed;
  /// `spin` bounds Pop()'s pre-park spin (0 = park at once).
  MpscChannel(size_t capacity, int producers,
              std::chrono::nanoseconds spin = kDefaultPopSpin)
      : capacity_(capacity), spin_(spin), producers_open_(producers) {
    ELASTICUTOR_CHECK(capacity > 0);
    ELASTICUTOR_CHECK(producers > 0);
  }

  MpscChannel(const MpscChannel&) = delete;
  MpscChannel& operator=(const MpscChannel&) = delete;

  /// Blocks while full; returns false iff the channel was force-closed
  /// (Abort) and the batch was not enqueued.
  bool Push(TupleBatchStorage* batch) {
    std::unique_lock<std::mutex> lock(mu_);
    if (ring_.size() >= capacity_) {
      ++push_blocks_;
      not_full_.wait(lock,
                     [this] { return ring_.size() < capacity_ || aborted_; });
    }
    if (aborted_) return false;
    ring_.push_back(batch);
    ++batches_pushed_;
    const bool wake = SignalLocked();
    lock.unlock();
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Non-blocking pop; nullptr when currently empty (channel may still be
  /// open). The consumer uses this to flush partial output batches before
  /// committing to a blocking Pop().
  TupleBatchStorage* TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    return PopLocked();
  }

  /// Blocks until a batch arrives, the channel is closed (all producers
  /// done) and drained, or a Kick() lands. nullptr no longer means "done"
  /// by itself — a kicked consumer gets a spurious nullptr so it can
  /// revisit out-of-band state (the elastic control board); check
  /// exhausted() to distinguish shutdown from a wake-up.
  TupleBatchStorage* Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!ReadyLocked()) {
      const uint64_t seen = signal_.load(std::memory_order_relaxed);
      lock.unlock();
      SpinWhileQuiet(seen);
      lock.lock();
      if (!ReadyLocked()) {
        // Past the spin: park. The predicate is re-checked under the
        // mutex every publisher holds, so nothing published since the
        // spin ended can be missed.
        ++pop_waits_;
        parked_ = true;
        not_empty_.wait(lock, [this] { return ReadyLocked(); });
        parked_ = false;
      }
    }
    kicked_ = false;  // Any return lets the consumer poll its control state.
    return PopLocked();
  }

  /// Wakes a consumer blocked in Pop() without closing anything: its Pop
  /// returns (possibly nullptr on an empty ring). Used by the elastic
  /// control plane so an idle worker notices new label/migration duties.
  void Kick() {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      kicked_ = true;
      wake = SignalLocked();
    }
    if (wake) not_empty_.notify_one();
  }

  /// True once the channel can never yield another batch: drained and
  /// either closed by all producers or aborted. The consumer's shutdown
  /// test (a plain nullptr from Pop may just be a Kick).
  bool exhausted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.empty() && (producers_open_ == 0 || aborted_);
  }

  /// A new producer joins a live channel (NativeRuntime::GrowWorkers wires a
  /// grown worker into every downstream channel). Only legal while at least
  /// one producer is still open: once the last producer closed, the
  /// consumer may already have observed exhaustion and exited.
  void AddProducer() {
    std::lock_guard<std::mutex> lock(mu_);
    ELASTICUTOR_CHECK_MSG(producers_open_ > 0,
                          "AddProducer on a closed channel");
    ++producers_open_;
  }

  /// A producer finished for good (source budget exhausted / stop request /
  /// upstream channel closed).
  void CloseProducer() {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ELASTICUTOR_CHECK_MSG(producers_open_ > 0,
                            "CloseProducer called more times than producers");
      --producers_open_;
      if (producers_open_ > 0) return;
      wake = SignalLocked();  // Consumer may be waiting on an empty ring.
    }
    if (wake) not_empty_.notify_one();
  }

  /// Emergency teardown: unblocks producers and the consumer regardless of
  /// ring state (batches still in the ring are returned by Pop until
  /// drained).
  void Abort() {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      aborted_ = true;
      wake = SignalLocked();
    }
    not_full_.notify_all();
    if (wake) not_empty_.notify_one();
  }

  // ---- Contention counters (monotone; read after threads joined) ----
  int64_t push_blocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return push_blocks_;
  }
  int64_t pop_waits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pop_waits_;
  }
  int64_t batches_pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_pushed_;
  }

 private:
  /// Spin polls between two clock reads (a pause is ~10-40 ns, a clock
  /// read ~25-45 ns).
  static constexpr uint32_t kSpinClockEvery = 32;

  /// Pop() can return without waiting: a batch, a close, an abort or a kick.
  bool ReadyLocked() const {
    return !ring_.empty() || producers_open_ == 0 || aborted_ || kicked_;
  }

  /// Publishes a state change to a spinning consumer; returns whether the
  /// consumer is parked and needs a condvar notify. Caller holds mu_ (so
  /// the plain read-increment of the counter is race-free).
  bool SignalLocked() {
    signal_.store(signal_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
    return parked_;
  }

  /// Spins (no lock held) until the signal counter moves past `seen` or
  /// the spin bound expires.
  void SpinWhileQuiet(uint64_t seen) const {
    if (spin_.count() <= 0) return;
    const auto deadline = std::chrono::steady_clock::now() + spin_;
    for (uint32_t polls = 1;
         signal_.load(std::memory_order_acquire) == seen; ++polls) {
#if defined(__x86_64__) || defined(_M_X64)
      _mm_pause();
#elif defined(__aarch64__)
      asm volatile("yield" ::: "memory");
#endif
      if (polls % kSpinClockEvery == 0 &&
          std::chrono::steady_clock::now() >= deadline) {
        return;
      }
    }
  }

  TupleBatchStorage* PopLocked() {
    if (ring_.empty()) return nullptr;
    TupleBatchStorage* batch = ring_.front();
    ring_.pop_front();
    not_full_.notify_one();
    return batch;
  }

  const size_t capacity_;
  const std::chrono::nanoseconds spin_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<TupleBatchStorage*> ring_;
  int producers_open_;
  bool aborted_ = false;
  bool kicked_ = false;
  bool parked_ = false;  // Consumer waits on not_empty_.
  /// Bumped under mu_ by every publisher the consumer may be waiting for;
  /// polled lock-free by the spin.
  std::atomic<uint64_t> signal_{0};
  int64_t push_blocks_ = 0;
  int64_t pop_waits_ = 0;
  int64_t batches_pushed_ = 0;
};

}  // namespace exec
}  // namespace elasticutor
