// The repo's ONLY sanctioned blocking-synchronization vocabulary:
// annotated Mutex / MutexLock wrappers over the std primitives, visible
// to Clang Thread Safety Analysis (util/thread_annotations.h).
// tools/lint.py rule R7 bans the raw std::mutex family everywhere under
// src/ except this file, so every lock in the tree carries TSA
// capability semantics: GUARDED_BY fields are compiler-checked, REQUIRES
// contracts are compiler-checked, and a forgotten unlock is a build
// break under the clang-tsa CI job.
//
// Await: condition waits are NOT spelled as bare wait loops over a
// std::condition_variable. `mu.Await(pred)` (caller holds mu) blocks
// until pred() — evaluated with mu held — returns true. Wakeups need no
// explicit signaling: Mutex::Unlock notifies Await-waiters whenever any
// are registered, so "change guarded state under the lock, drop the
// lock" is the complete publication protocol (the shape
// absl::Mutex::Await pioneered). Await is the tree's one wait primitive.
//
// Cost: Unlock reads one int (guarded, uncontended) and notifies only
// when a waiter is actually registered; the wrappers otherwise compile
// to the raw std calls. tests/util/thread_annotations_test.cc pins
// behavioral parity with the raw primitives under TSan.

#ifndef CONTENDER_UTIL_MUTEX_H_
#define CONTENDER_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace contender {

/// An exclusive lock with TSA capability semantics. Non-reentrant.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Blocks until the lock is held. Prefer MutexLock scoping.
  void Lock() ACQUIRE() { mu_.lock(); }

  /// Releases the lock; wakes Await-waiters when any are registered, so
  /// publishing guarded state is just "mutate under the lock, unlock".
  void Unlock() RELEASE() {
    const bool wake = await_waiters_ > 0;
    mu_.unlock();
    if (wake) await_cv_.notify_all();
  }

  /// Acquires without blocking; true iff the lock is now held.
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Tells the analysis (and the reader) the lock is held here. No-op
  /// at runtime; use where a REQUIRES contract crosses an indirection
  /// the analysis cannot follow.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

  /// Blocks until `pred()` — evaluated with this mutex held — returns
  /// true. The lock is released while waiting and re-held when Await
  /// returns (and whenever pred runs). Spurious wakeups are absorbed.
  /// The predicate lambda runs under the lock but the analysis cannot
  /// see that through the template indirection, so condition lambdas
  /// over guarded state carry NO_THREAD_SAFETY_ANALYSIS (budgeted,
  /// lint rule R8).
  template <typename Pred>
  void Await(Pred pred) REQUIRES(this) {
    // Courtesy wake: our pre-sleep unlock (inside cv wait) bypasses
    // Unlock's notify, so publish any state this thread changed first.
    if (await_waiters_ > 0) await_cv_.notify_all();
    std::unique_lock<std::mutex> waiter(mu_, std::adopt_lock);
    ++await_waiters_;
    await_cv_.wait(waiter, [&pred] { return pred(); });
    --await_waiters_;
    waiter.release();  // the caller still holds the mutex
  }

 private:
  std::mutex mu_;
  /// Await-waiters registered on await_cv_. Only read/written with mu_
  /// held (including inside the wait loop, which re-holds mu_ whenever
  /// it evaluates the predicate).
  int await_waiters_ GUARDED_BY(this) = 0;
  std::condition_variable await_cv_;
};

/// RAII lock scope: acquires in the constructor, releases in the
/// destructor. The TSA scoped-capability annotations make the held
/// region visible to the analysis.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace contender

#endif  // CONTENDER_UTIL_MUTEX_H_
