#ifndef LMKG_UTIL_MPSC_RING_H_
#define LMKG_UTIL_MPSC_RING_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lmkg::util {

/// Phantom capability expressing an exclusive ROLE rather than a lock:
/// never acquired at runtime (it has no state), only asserted. A thread
/// that IS the role's unique holder by construction — e.g. a serving
/// shard's worker, the only thread ever popping that shard's ring —
/// claims it once via an LMKG_ASSERT_CAPABILITY method, after which the
/// analysis checks every LMKG_REQUIRES(role) call. The claim is a
/// greppable, per-thread statement of the contract; the analysis then
/// rejects role-restricted calls from any function that never claimed
/// it.
class LMKG_CAPABILITY("role") ExclusiveRole {};

/// Bounded lock-free multi-producer single-consumer ring — the
/// submission path of one serving shard. Producers (client threads)
/// TryPush concurrently without ever taking a lock; the single consumer
/// (the shard's worker) TryPops in FIFO-per-producer order. The layout
/// is the Vyukov bounded-queue cell protocol: each slot carries a
/// sequence number that encodes whether it is free for the producer of
/// ticket `pos` (seq == pos) or holds the item for the consumer of
/// ticket `pos` (seq == pos + 1), so a push is one CAS on the tail
/// ticket plus a seq_cst store, and a pop is one acquire load plus a
/// release store — no slot is ever read before its payload is published.
///
/// Parking: the lock-free fast path never touches a mutex. Only when a
/// side would otherwise spin — the consumer finding the ring empty, a
/// producer finding it full — does it fall back to a condvar (the
/// portable stand-in for a raw futex; on Linux the condvar IS a futex
/// under glibc). The consumer's handshake is a Dekker pair written in
/// seq_cst atomic operations: the consumer stores
/// `consumer_parked_ = true` and then loads the head cell's `seq`
/// (ItemReady) before sleeping; a producer stores the cell's `seq` and
/// then loads `consumer_parked_`. All four are seq_cst, so they fall in
/// one total order, and at least one side sees the other's store: the
/// consumer sees the item and does not sleep, or the producer sees the
/// flag and notifies under the mutex. A missed wakeup is impossible, and
/// the uncontended push pays only the seq_cst store plus one plain load
/// of the flag. The wake check stays a load, not an RMW: the flag's
/// cache line is touched by every push, and an RMW there costs
/// measurable single-request throughput. A full ring is looser: the
/// producer advertises with a seq_cst `producers_parked_` increment,
/// the consumer reads it relaxed after freeing a slot, and the
/// producer's 1 ms timed park bounds any missed wakeup.
///
/// There is no std::atomic_thread_fence: TSan does not model standalone
/// fences, and GCC rejects them under -fsanitize=thread.
///
/// Shutdown: Close() marks the ring, wakes every parked thread, and
/// fails all future pushes; items already accepted remain poppable so
/// the consumer can drain before exiting (the serving shutdown
/// contract: every accepted request completes).
///
/// Single-consumer contract, machine-checked: the consumer-side methods
/// (TryPop / WaitForItem / WaitForItemUntil) require the ring's
/// `consumer_role_` capability — a phantom ExclusiveRole, not a lock.
/// The one thread that owns the consumer end claims it once with
/// AssertConsumer() at the top of its loop; calling a consumer-side
/// method without the claim fails the Clang thread-safety build. The
/// producer-side methods and ApproxSize stay role-free (any thread).
template <typename T>
class MpscRing {
 public:
  /// `capacity` is rounded up to a power of two, minimum 2.
  explicit MpscRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap *= 2;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (size_t i = 0; i < cap; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// Lock-free multi-producer push. False when the ring is full or
  /// closed (the item is NOT enqueued).
  bool TryPush(T item) {
    if (!TryPushNoWake(item)) return false;
    WakeConsumerIfParked();
    return true;
  }

  /// TryPush without the consumer wakeup — the bulk-submission path
  /// pushes a whole batch with this and issues ONE WakeConsumer() per
  /// ring afterwards, amortizing the flag check and (when the worker is
  /// parked) the mutex/notify across the batch. The Dekker handshake
  /// still holds batched: every item's seq_cst store precedes the
  /// deferred wake's flag load, so the consumer's advertise-then-recheck
  /// in WaitForItem sees either the published items or the wake.
  /// Callers MUST follow a successful no-wake push with WakeConsumer()
  /// before blocking on the result.
  bool TryPushNoWake(T item) {
    if (closed_.load(std::memory_order_acquire)) return false;
    size_t pos = tail_.load(std::memory_order_relaxed);
    Cell* cell;
    for (;;) {
      cell = &cells_[pos & mask_];
      const size_t seq = cell->seq.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return false;  // full: the consumer has not freed this slot yet
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = item;
    // seq_cst, not just release: the producer half of the parking
    // handshake (see the class comment).
    cell->seq.store(pos + 1, std::memory_order_seq_cst);
    return true;
  }

  /// Publishes deferred TryPushNoWake items to a possibly-parked
  /// consumer (flag check + conditional notify). Cheap when the consumer
  /// is running: one seq_cst load.
  void WakeConsumer() { WakeConsumerIfParked(); }

  /// Blocking push: spins briefly on full, then parks until the consumer
  /// frees space. False only when the ring is (or becomes) closed.
  bool Push(T item) {
    for (int spin = 0; spin < 64; ++spin) {
      if (TryPush(item)) return true;
      if (closed_.load(std::memory_order_acquire)) return false;
      std::this_thread::yield();
    }
    for (;;) {
      // Advertise, then recheck. TryPop reads the count relaxed, so a
      // consumer freeing a slot concurrently may miss the advertisement;
      // the 1 ms timed park below bounds what that costs.
      producers_parked_.fetch_add(1, std::memory_order_seq_cst);
      if (TryPush(item)) {
        producers_parked_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      if (closed_.load(std::memory_order_acquire)) {
        producers_parked_.fetch_sub(1, std::memory_order_relaxed);
        return false;
      }
      {
        MutexLock lock(&park_mu_);
        // Predicate over atomics only — safe to run as a lambda under
        // the analysis (no guarded fields).
        space_cv_.WaitFor(park_mu_, std::chrono::milliseconds(1), [&] {
          return closed_.load(std::memory_order_acquire) || !Full();
        });
      }
      producers_parked_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Claims the consumer role for the calling function: the analysis
  /// thereafter accepts consumer-side calls from it. Call it exactly
  /// where the code establishes "this thread is the one consumer" — the
  /// top of the shard worker loop, a test's consumer thread. No runtime
  /// effect.
  void AssertConsumer() const LMKG_ASSERT_CAPABILITY(consumer_role_) {}

  /// Single-consumer pop. False when no published item is available.
  bool TryPop(T* out) LMKG_REQUIRES(consumer_role_) {
    const size_t pos = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const size_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1) < 0)
      return false;  // producer has not published this slot yet
    *out = cell.value;
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    // Relaxed (no fence): a producer that parks right after this load
    // misses at most one wakeup, and its park is a 1ms timed retry, so
    // the race costs bounded latency in the already-backpressured
    // full-ring regime — not a fence on every uncontended pop.
    if (producers_parked_.load(std::memory_order_relaxed) != 0) {
      MutexLock lock(&park_mu_);
      space_cv_.NotifyAll();
    }
    return true;
  }

  /// Consumer-side park: returns once an item may be available or the
  /// ring is closed (spurious returns are fine — the caller re-TryPops).
  void WaitForItem() LMKG_REQUIRES(consumer_role_) {
    for (int spin = 0; spin < 64; ++spin) {
      if (ItemReady() || closed_.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
    }
    MutexLock lock(&park_mu_);
    // Advertise, then recheck through ItemReady — the consumer half of
    // the handshake (see the class comment).
    consumer_parked_.store(true, std::memory_order_seq_cst);
    item_cv_.Wait(park_mu_, [&] {
      return ItemReady() || closed_.load(std::memory_order_acquire);
    });
    consumer_parked_.store(false, std::memory_order_relaxed);
  }

  /// Timed variant for the micro-batcher's coalescing window. True if an
  /// item may be available or the ring closed; false on deadline expiry.
  bool WaitForItemUntil(std::chrono::steady_clock::time_point deadline)
      LMKG_REQUIRES(consumer_role_) {
    if (ItemReady() || closed_.load(std::memory_order_acquire)) return true;
    MutexLock lock(&park_mu_);
    consumer_parked_.store(true, std::memory_order_seq_cst);
    const bool ready = item_cv_.WaitUntil(park_mu_, deadline, [&] {
      return ItemReady() || closed_.load(std::memory_order_acquire);
    });
    consumer_parked_.store(false, std::memory_order_relaxed);
    return ready;
  }

  /// Marks the ring closed: every future push fails, every parked thread
  /// wakes. Items already accepted stay poppable (drain-then-exit).
  void Close() {
    closed_.store(true, std::memory_order_release);
    MutexLock lock(&park_mu_);
    item_cv_.NotifyAll();
    space_cv_.NotifyAll();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Approximate occupancy (exact when quiesced); monitoring only.
  size_t ApproxSize() const {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? tail - head : 0;
  }

 private:
  struct Cell {
    std::atomic<size_t> seq{0};
    T value{};
  };

  // The seq load is seq_cst: after the consumer advertises itself, this
  // recheck is the second half of its Dekker pair.
  bool ItemReady() const {
    const size_t pos = head_.load(std::memory_order_relaxed);
    const size_t seq =
        cells_[pos & mask_].seq.load(std::memory_order_seq_cst);
    return static_cast<intptr_t>(seq) -
               static_cast<intptr_t>(pos + 1) >= 0;
  }

  bool Full() const {
    return ApproxSize() > mask_;  // tail ran a full lap ahead of head
  }

  void WakeConsumerIfParked() {
    if (consumer_parked_.load(std::memory_order_seq_cst)) {
      MutexLock lock(&park_mu_);
      item_cv_.NotifyOne();
    }
  }

  // Producer and consumer tickets on separate cache lines so pushes and
  // pops never false-share.
  alignas(64) std::atomic<size_t> tail_{0};
  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<bool> consumer_parked_{false};
  std::atomic<uint32_t> producers_parked_{0};
  std::unique_ptr<Cell[]> cells_;
  size_t mask_ = 0;

  Mutex park_mu_;
  CondVar item_cv_;   // consumer parks here when empty
  CondVar space_cv_;  // producers park here when full

  // The single-consumer role (see the class comment). The lock-free
  // head_/tail_/cells_ protocol is the ring's own correctness argument —
  // deliberately OUTSIDE the analysis, whose lock model cannot express
  // acquire/release cell sequencing; TSan covers it (mpsc_ring_test is
  // `threaded`-labeled). What the capability pins is the part the
  // protocol cannot check itself: that exactly one thread is popping.
  ExclusiveRole consumer_role_;
};

}  // namespace lmkg::util

#endif  // LMKG_UTIL_MPSC_RING_H_
