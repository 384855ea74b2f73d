// A sequence lock: optimistic, lock-free reads of a small trivially-
// copyable value that a (externally serialized) writer replaces in place.
//
// Protocol: the writer bumps a sequence counter to odd, stores the
// payload, and bumps it back to even. A reader loads the sequence,
// copies the payload, and re-loads the sequence; the copy is valid only
// when both loads saw the same even value. Readers never write shared
// state — the read side scales linearly with cores, which is why the
// serving hot path publishes its snapshot pointer through one of these
// (serve/snapshot_holder.h, DESIGN.md §12).
//
// TSAN-cleanliness: a textbook seqlock reads the payload non-atomically
// and is therefore a data race under the C++ memory model even though
// the retry discards torn copies. Here the payload is mirrored into
// word-sized atomics accessed with relaxed ordering, so there is no race
// to report, and the seq counter's acquire/release ordering plus the
// acquire fence before the validation load give the copy real
// happens-before edges (Boehm, "Can seqlocks get along with programming
// language memory models?", MSPC'12).
//
// The write side is deliberately NOT a mutex: writers must already be
// serialized by the owner (the holder's writer seam). Entering the write
// section while it is held — reentrantly or from a second writer — is a
// protocol violation and CHECK-fails immediately rather than corrupting
// readers (tests/util/seqlock_test.cc exercises the death).

#ifndef CONTENDER_UTIL_SEQLOCK_H_
#define CONTENDER_UTIL_SEQLOCK_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "util/logging.h"

namespace contender {

/// Seqlock over a trivially-copyable T (the enable_if keeps the template
/// uninstantiable for anything else — asserted by a detection-idiom test,
/// the same negative-compile harness units.h uses).
template <typename T,
          typename = std::enable_if_t<std::is_trivially_copyable_v<T>>>
class Seqlock {
 public:
  Seqlock() { WriteWords(T{}); }
  explicit Seqlock(const T& initial) { WriteWords(initial); }

  Seqlock(const Seqlock&) = delete;
  Seqlock& operator=(const Seqlock&) = delete;

  /// RAII write section. Constructing a second guard while one is live —
  /// from the same thread (reentrancy) or any other — CHECK-fails: the
  /// writer side is a seam the owner must serialize, not a lock that
  /// queues. Non-copyable and non-movable so a section cannot be
  /// duplicated or smuggled across scopes.
  class WriteGuard {
   public:
    explicit WriteGuard(Seqlock* lock) : lock_(lock) {
      CONTENDER_CHECK(!lock_->write_held_.exchange(
          true, std::memory_order_acquire))
          << "Seqlock: write section entered while already held "
             "(reentrant or unserialized writer)";
      // Odd sequence = write in progress; the acq_rel RMW keeps the
      // payload stores below from being hoisted above it.
      lock_->seq_.fetch_add(1, std::memory_order_acq_rel);
    }

    ~WriteGuard() {
      // Even again; release-publishes every Set() before it.
      lock_->seq_.fetch_add(1, std::memory_order_release);
      lock_->write_held_.store(false, std::memory_order_release);
    }

    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;
    WriteGuard(WriteGuard&&) = delete;
    WriteGuard& operator=(WriteGuard&&) = delete;

    /// Stores a new value; may be called any number of times inside the
    /// section (readers only ever see the state at section exit).
    void Set(const T& value) { lock_->StoreWords(value); }

   private:
    Seqlock* lock_;
  };

  /// Opens a write section (see WriteGuard).
  [[nodiscard]] WriteGuard StartWrite() { return WriteGuard(this); }

  /// Replaces the value in one self-contained write section.
  void Write(const T& value) {
    WriteGuard guard(this);
    guard.Set(value);
  }

  /// One optimistic read probe. False when a write was in flight or
  /// landed mid-copy; the copy in `*out` is garbage in that case and must
  /// be discarded.
  [[nodiscard]] bool TryReadOnce(T* out) const {
    const uint64_t before = seq_.load(std::memory_order_acquire);
    if (before & 1) return false;
    uint64_t words[kWords];
    for (std::size_t w = 0; w < kWords; ++w) {
      words[w] = words_[w].load(std::memory_order_relaxed);
    }
    // Orders the relaxed payload loads above before the validation load
    // below (everything is atomic, so this is ordering, not race repair).
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_.load(std::memory_order_relaxed) != before) return false;
    std::memcpy(out, words, sizeof(T));
    return true;
  }

  /// Bounded-spin read: up to `max_spins` probes. False only while a
  /// writer overlaps every probe — with the owner's writers serialized
  /// and brief, a handful of spins virtually always suffices, and the
  /// caller degrades to its slow path instead of spinning forever.
  [[nodiscard]] bool TryRead(T* out, int max_spins) const {
    for (int spin = 0; spin < max_spins; ++spin) {
      if (TryReadOnce(out)) return true;
    }
    return false;
  }

  /// Sequence counter value (even = quiescent); for tests and metrics.
  [[nodiscard]] uint64_t sequence() const {
    return seq_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::size_t kWords =
      (sizeof(T) + sizeof(uint64_t) - 1) / sizeof(uint64_t);

  // Constructor-time store: no section needed, nothing can observe it.
  void WriteWords(const T& value) { StoreWords(value); }

  void StoreWords(const T& value) {
    uint64_t words[kWords] = {};
    std::memcpy(words, &value, sizeof(T));
    for (std::size_t w = 0; w < kWords; ++w) {
      words_[w].store(words[w], std::memory_order_relaxed);
    }
    // Orders the payload stores before the guard's closing seq bump even
    // on architectures where relaxed stores may sink.
    std::atomic_thread_fence(std::memory_order_release);
  }

  std::atomic<uint64_t> seq_{0};
  std::atomic<bool> write_held_{false};
  std::atomic<uint64_t> words_[kWords > 0 ? kWords : 1];
};

}  // namespace contender

#endif  // CONTENDER_UTIL_SEQLOCK_H_
