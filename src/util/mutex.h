#ifndef LMKG_UTIL_MUTEX_H_
#define LMKG_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace lmkg::util {

class CondVar;

/// std::mutex with Clang Thread Safety Analysis capability annotations —
/// the ONLY mutex type first-party code may use (scripts/lint_repo.py
/// rejects raw std::mutex/std::scoped_lock outside this header), because
/// only an annotated capability lets -Wthread-safety prove lock
/// discipline. Zero overhead: every method inlines to the std::mutex
/// call.
///
/// Prefer the RAII MutexLock; reach for Lock/Unlock/TryLock directly
/// only where the scope shape demands it (e.g. a try-lock that adopts
/// into a guard on success, see MutexLock's kAdoptLock constructor).
class LMKG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LMKG_ACQUIRE() { mu_.lock(); }
  void Unlock() LMKG_RELEASE() { mu_.unlock(); }
  /// True = acquired. The analysis tracks the capability as held only on
  /// the success branch.
  bool TryLock() LMKG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  // For CondVar only: waiting needs the underlying handle. Keeping it
  // private is what makes the wrapper airtight — no caller can slip a
  // raw std::unique_lock around the analysis.
  std::mutex& native() { return mu_; }

  std::mutex mu_;
};

/// Tag selecting MutexLock's lock-adopting constructor.
struct AdoptLockTag {
  explicit AdoptLockTag() = default;
};
inline constexpr AdoptLockTag kAdoptLock{};

/// Scoped capability over util::Mutex (std::lock_guard shape, plus the
/// relock/adopt affordances the serving paths need):
///
///   * `MutexLock lock(&mu)`             — acquire now, release on scope
///     exit;
///   * `MutexLock lock(&mu, kAdoptLock)` — take over a mutex the caller
///     already holds (the try-lock idiom: `if (!mu.TryLock()) return;
///     MutexLock lock(&mu, kAdoptLock);`), so TSA-checked early returns
///     can never leak the lock;
///   * `lock.Unlock()` / `lock.Lock()`   — conditional mid-scope release
///     and reacquisition (the inline-execution path drops the replica
///     mutex before completing a request; the worker loops drop theirs
///     around body execution). The destructor releases only if held.
class LMKG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) LMKG_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_->Lock();
  }
  MutexLock(Mutex* mu, AdoptLockTag) LMKG_REQUIRES(mu)
      : mu_(mu), held_(true) {}
  ~MutexLock() LMKG_RELEASE() {
    if (held_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() LMKG_RELEASE() {
    mu_->Unlock();
    held_ = false;
  }
  void Lock() LMKG_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex* const mu_;
  bool held_;
};

/// Condition variable paired with util::Mutex. Waits take the Mutex the
/// caller verifiably holds (LMKG_REQUIRES), adopt its native handle for
/// the std::condition_variable call, and hand it back on return — zero
/// overhead over std::condition_variable + std::unique_lock, with the
/// "must hold the mutex to wait" rule machine-checked.
///
/// As with every standard condvar, the mutex is RELEASED while the
/// thread is parked inside a Wait — the analysis (which has no notion of
/// a wait's release-reacquire window) treats it as held throughout,
/// which is exactly the caller-visible contract: guarded state may be
/// touched before and after, and predicates must be re-checked after
/// every return (spurious wakeups).
///
/// Predicate overloads run the predicate under the mutex like their std
/// counterparts, but note: Clang analyzes lambda bodies as separate
/// functions, so a predicate touching LMKG_GUARDED_BY fields will NOT
/// compile. Callers with guarded predicates loop around the plain
/// overloads instead (see ModelLifecycle::Loop); predicates over
/// atomics (the MPSC ring, the serving done_cv) can use these directly.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  void Wait(Mutex& mu) LMKG_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) LMKG_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();
  }

  /// True = returned before the deadline (notified or spurious); false =
  /// deadline expired.
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      LMKG_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status == std::cv_status::no_timeout;
  }

  /// True = predicate satisfied; false = deadline expired with it false.
  template <typename Clock, typename Duration, typename Predicate>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline,
                 Predicate pred) LMKG_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    const bool satisfied = cv_.wait_until(native, deadline, std::move(pred));
    native.release();
    return satisfied;
  }

  /// True = returned before the timeout (notified or spurious).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu,
               const std::chrono::duration<Rep, Period>& timeout)
      LMKG_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, timeout);
    native.release();
    return status == std::cv_status::no_timeout;
  }

  /// True = predicate satisfied; false = timeout with it still false.
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
               Predicate pred) LMKG_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    const bool satisfied = cv_.wait_for(native, timeout, std::move(pred));
    native.release();
    return satisfied;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace lmkg::util

#endif  // LMKG_UTIL_MUTEX_H_
