#ifndef HYGNN_CORE_MUTEX_H_
#define HYGNN_CORE_MUTEX_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "core/thread_annotations.h"

namespace hygnn::core {

/// Annotated mutual-exclusion lock. A thin wrapper over std::mutex
/// whose only reason to exist is Clang Thread Safety Analysis: the
/// capability annotations make "which lock protects which field"
/// machine-checked (std::mutex and std::lock_guard are invisible to the
/// analysis). scripts/lint.py rule 12 routes every mutex in the repo
/// outside src/core/ through this type.
///
/// Annotate each protected field with the lock that guards it:
///
///   core::Mutex mutex_;
///   std::vector<int> items_ HYGNN_GUARDED_BY(mutex_);
///
/// and hold the lock with core::MutexLock (scoped) or Lock()/Unlock()
/// (annotated, for the rare non-scoped pattern).
class HYGNN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() HYGNN_ACQUIRE() { mu_.lock(); }
  void Unlock() HYGNN_RELEASE() { mu_.unlock(); }
  bool TryLock() HYGNN_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over core::Mutex — the annotated equivalent of
/// std::lock_guard. Acquires in the constructor, releases in the
/// destructor; the analysis tracks the capability for the scope,
/// including early returns.
class HYGNN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HYGNN_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() HYGNN_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with core::Mutex. Wait releases the mutex
/// while blocked and reacquires it before returning; it can wake
/// spuriously, so callers loop on their predicate explicitly:
///
///   MutexLock lock(mutex_);
///   while (!ready_) cv_.Wait(mutex_);
///
/// Deliberately no predicate-lambda overload: the analysis treats a
/// lambda body as a separate unannotated function, so a predicate
/// reading HYGNN_GUARDED_BY fields would warn under clang even though
/// the lock is held. The explicit while loop keeps guarded reads inside
/// the annotated scope.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or a spurious wakeup). `mu` must be held by
  /// the caller; it is released for the duration of the block and held
  /// again on return.
  void Wait(Mutex& mu) HYGNN_REQUIRES(mu);

  /// Like Wait, but gives up after `timeout_us` microseconds. Returns
  /// false on timeout, true when notified (or woken spuriously) — so
  /// callers still loop on their predicate and treat the return value
  /// only as "did the deadline pass". Non-positive timeouts return
  /// false immediately without blocking. serve::Server::Pending::WaitFor
  /// uses this to bound a caller's wait for its result.
  bool WaitFor(Mutex& mu, int64_t timeout_us) HYGNN_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hygnn::core

#endif  // HYGNN_CORE_MUTEX_H_
