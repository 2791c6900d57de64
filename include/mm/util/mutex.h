// Annotated mutex vocabulary: mm::Mutex / mm::MutexLock / mm::CondVar wrap
// the std primitives with Clang thread-safety capabilities so lock
// contracts (which fields a mutex guards, which functions require it) are
// compiler-checked under `-Wthread-safety` (thread_annotations.h).
//
// All MegaMmap code outside util/ must use these wrappers instead of raw
// std::mutex/std::lock_guard/std::unique_lock/std::condition_variable —
// enforced by ci/mm_verify.py rule MML001 — because the raw types carry no
// capability attributes and silently opt out of the analysis.
#pragma once

#include <condition_variable>
#include <mutex>

#include "mm/util/thread_annotations.h"

namespace mm {

class CondVar;
class MutexLock;

/// An annotated exclusive lock. Identical runtime behavior to std::mutex;
/// the capability attribute lets Clang verify every MM_GUARDED_BY /
/// MM_REQUIRES contract written against it.
class MM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MM_ACQUIRE() { mu_.lock(); }
  void Unlock() MM_RELEASE() { mu_.unlock(); }
  bool TryLock() MM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII scope lock over mm::Mutex (the std::lock_guard/std::unique_lock
/// replacement). Supports early release (Unlock) for the
/// collect-under-lock, notify-outside-lock pattern, and condition waits
/// through mm::CondVar.
class MM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MM_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() MM_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases before scope exit (destruction is then a no-op).
  void Unlock() MM_RELEASE() { lock_.unlock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with mm::Mutex via MutexLock. Waits take the
/// scoped lock by reference, so holding the mutex is enforced by
/// construction; use explicit `while (!pred) cv.Wait(lock);` loops rather
/// than predicate lambdas (the analysis cannot see captures inside a
/// lambda body).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases the lock and blocks; re-acquires before return.
  /// Spurious wakeups are possible: always re-check the predicate.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mm
