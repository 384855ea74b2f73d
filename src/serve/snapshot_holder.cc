#include "serve/snapshot_holder.h"

#include <utility>

#include "util/logging.h"

namespace contender::serve {

SnapshotHolder::SnapshotHolder(std::shared_ptr<const ModelSnapshot> initial)
    : current_(std::move(initial)) {
  CONTENDER_CHECK(current_ != nullptr)
      << "SnapshotHolder: initial snapshot must be non-null";
  // Constructor-time store: no reader can observe the holder yet.
  snapshot_.store(current_.get(), std::memory_order_relaxed);
}

SnapshotHolder::~SnapshotHolder() = default;

SnapshotHolder::View::View(const SnapshotHolder* holder)
    : guard_(&holder->epochs_) {
  // Epoch registration (the guard, already constructed) MUST precede the
  // pointer load: the reclamation proof relies on the pointer being
  // loaded after this reader's announcement is visible to writers.
  if (guard_.engaged()) {
    snapshot_ = holder->snapshot_.load(std::memory_order_acquire);
    return;
  }
  // Slow path (every epoch slot taken): pin by refcount.
  fallback_ = holder->shared();
  snapshot_ = fallback_.get();
}

std::shared_ptr<const ModelSnapshot> SnapshotHolder::shared() const {
  const MutexLock lock(&writer_mutex_);  // contender-lint: writer-seam
  return current_;
}

void SnapshotHolder::Publish(std::shared_ptr<const ModelSnapshot> next) {
  CONTENDER_CHECK(next != nullptr)
      << "SnapshotHolder: cannot publish a null snapshot";
  std::shared_ptr<const ModelSnapshot> displaced;
  {
    const MutexLock lock(&writer_mutex_);  // contender-lint: writer-seam
    snapshot_.store(next.get(), std::memory_order_release);
    displaced = std::move(current_);
    current_ = std::move(next);
  }
  // Retire outside the seam so reclamation (which may run a snapshot
  // destructor) never extends the writer critical section readers'
  // fallback path waits on.
  epochs_.Retire(std::move(displaced));
}

}  // namespace contender::serve
