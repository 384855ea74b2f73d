// The lock-free home of the currently-served ModelSnapshot.
//
// Read side (Acquire): an epoch reader registration (util/epoch.h) plus
// one acquire load of the snapshot pointer — no mutex, no shared_ptr
// refcount bump, no shared cache line written besides the reader's own
// padded epoch slot. The version is a field of the immutable snapshot,
// so the pointer alone names both. The returned View pins the snapshot
// for its lifetime: any snapshot the view can point at is either still
// current or parked in the epoch domain's retired list until this reader
// (and every other) moves past its epoch.
//
// Write side (Publish): serialized by a mutex — the designated writer
// seam; nothing on the read path ever touches it — which (1) stores the
// new pointer with release ordering, (2) retires the displaced snapshot
// into the epoch domain, advancing the epoch and reclaiming whatever no
// reader can still see. shared() hands out a classic shared_ptr copy for
// cold-path consumers (refit, tests, anyone who wants to hold a snapshot
// across arbitrary code); handles taken there keep a snapshot alive past
// reclamation.
//
// Degradation, never failure: a saturated epoch domain (more than
// kNumSlots simultaneous readers) falls back to the shared() slow path —
// correctness identical, just a mutex-priced read. DESIGN.md §12 is the
// full memory-model writeup.

#ifndef CONTENDER_SERVE_SNAPSHOT_HOLDER_H_
#define CONTENDER_SERVE_SNAPSHOT_HOLDER_H_

#include <atomic>
#include <memory>

#include "serve/model_snapshot.h"
#include "util/epoch.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace contender::serve {

class SnapshotHolder {
 public:
  /// `initial` must be non-null.
  explicit SnapshotHolder(std::shared_ptr<const ModelSnapshot> initial);
  ~SnapshotHolder();

  SnapshotHolder(const SnapshotHolder&) = delete;
  SnapshotHolder& operator=(const SnapshotHolder&) = delete;

  /// A pinned, lock-free read of the current snapshot. Valid for the
  /// view's lifetime; cheap enough to take per request. Not for keeping:
  /// holding a view parks every subsequently displaced snapshot, so
  /// long-lived consumers should use shared() instead.
  class View {
   public:
    View(const View&) = delete;
    View& operator=(const View&) = delete;

    [[nodiscard]] const ModelSnapshot* get() const { return snapshot_; }
    const ModelSnapshot& operator*() const { return *snapshot_; }
    const ModelSnapshot* operator->() const { return snapshot_; }
    /// This reader's epoch slot: a contention-free stripe index for
    /// reader-side statistics. -1 on the fallback path (folded by
    /// ShardedCounter::Add).
    [[nodiscard]] int stats_slot() const { return guard_.slot(); }
    /// True when the lock-free fast path served this view (exposed so
    /// tests can assert the fast path actually engages).
    [[nodiscard]] bool lock_free() const { return fallback_ == nullptr; }

   private:
    friend class SnapshotHolder;
    explicit View(const SnapshotHolder* holder);

    EpochDomain::ReaderGuard guard_;
    const ModelSnapshot* snapshot_ = nullptr;
    /// Engaged only on the slow path; pins the snapshot by refcount.
    std::shared_ptr<const ModelSnapshot> fallback_;
  };

  [[nodiscard]] View Acquire() const { return View(this); }

  /// Cold-path handle: a shared_ptr copy taken under the writer seam.
  [[nodiscard]] std::shared_ptr<const ModelSnapshot> shared() const;

  /// Writer seam: publishes `next` (non-null) and retires the displaced
  /// snapshot. Readers in flight finish on whichever snapshot they
  /// pinned; new readers see `next`.
  void Publish(std::shared_ptr<const ModelSnapshot> next);

  /// Snapshots retired but still pinned by some reader's epoch.
  [[nodiscard]] size_t retired_pending() const {
    return epochs_.retired_pending();
  }

 private:
  /// Read path: this pointer and the epoch domain only, never a lock.
  /// Always names current_'s snapshot; stored (release) under the writer
  /// seam, loaded (acquire) once a reader's epoch guard is engaged.
  std::atomic<const ModelSnapshot*> snapshot_{nullptr};
  mutable EpochDomain epochs_;
  mutable Mutex writer_mutex_;  // contender-lint: writer-seam
  std::shared_ptr<const ModelSnapshot> current_ GUARDED_BY(writer_mutex_);
};

}  // namespace contender::serve

#endif  // CONTENDER_SERVE_SNAPSHOT_HOLDER_H_
