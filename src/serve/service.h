// The concurrent prediction front-end: a long-lived service that owns
// the *current* ModelSnapshot inside a lock-free SnapshotHolder, serves
// predictions off an epoch-pinned view of it, and answers batches on the
// caller's thread against one pinned snapshot.
//
// Read path: Predict/PredictDetailed/PredictBatch acquire a
// SnapshotHolder::View — an epoch registration plus one acquire load of
// the snapshot pointer (DESIGN.md §12); no mutex, no refcount bump, no
// shared line written except the reader's own padded epoch slot and
// counter stripes. Each answer is a pure function of (snapshot, request),
// so how the snapshot pointer is published cannot change it.
//
// Write path: Publish() — the designated writer seam — stores the new
// snapshot pointer under the holder's writer mutex and retires the
// displaced snapshot into the epoch domain. In-flight readers finish on
// the snapshot they pinned; cold-path handles from snapshot() keep
// versions alive arbitrarily long. There is no torn state — a batch is
// answered entirely by the single snapshot pinned at its start, and every
// answer is stamped with that snapshot's version.

#ifndef CONTENDER_SERVE_SERVICE_H_
#define CONTENDER_SERVE_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/health.h"
#include "serve/model_snapshot.h"
#include "serve/snapshot_holder.h"
#include "util/sharded_counter.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender::serve {

/// One in-mix prediction request: a known template executing beside the
/// given concurrent workload indices (MPL = concurrent.size() + 1).
struct PredictRequest {
  int template_index = -1;
  std::vector<int> concurrent;
};

/// One answer. `status` is non-OK only for malformed requests (indices
/// outside the snapshot's workload); model problems degrade down the
/// ladder instead (ContenderPredictor::PredictInMix), so a valid request
/// always yields a latency.
struct PredictResult {
  Status status;
  units::Seconds latency;
  /// Rung of the degradation ladder that produced `latency`.
  DegradationTier tier = DegradationTier::kFullModel;
  /// Version of the snapshot that answered (for staleness auditing).
  uint64_t snapshot_version = 0;
};

/// Thread-safe prediction service over a hot-swappable model snapshot.
class PredictionService {
 public:
  struct Options {
    /// Has no effect: batches are answered on the caller's thread. Kept
    /// only because the repository benchmark still sets it; ROADMAP item
    /// 9(a) retires it.
    int num_threads = 0;
    /// Optional model-health signal. When a template's breaker is open,
    /// answers for it start at tier 1 of the degradation ladder
    /// (transferred-QS) instead of its quarantined full model. Null
    /// disables breaker-driven degradation (pre-health behavior).
    std::shared_ptr<HealthTracker> health;
  };

  /// Starts serving `initial` (must be non-null).
  explicit PredictionService(std::shared_ptr<const ModelSnapshot> initial);
  PredictionService(std::shared_ptr<const ModelSnapshot> initial,
                    const Options& options);

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// The snapshot currently being served (a cold-path shared_ptr copy
  /// from the writer seam; callers may hold it as long as they like).
  [[nodiscard]] std::shared_ptr<const ModelSnapshot> snapshot() const;

  /// The lock-free holder itself, for read-side collaborators that want
  /// epoch-pinned views instead of refcounted handles (ObservationLog's
  /// ingest scoring path does).
  [[nodiscard]] const SnapshotHolder& holder() const { return holder_; }

  /// Replaces the served snapshot (the writer seam). In-flight readers
  /// finish on the snapshot they already pinned; `next` must be non-null.
  void Publish(std::shared_ptr<const ModelSnapshot> next);

  /// One prediction against the current snapshot; the entire read path is
  /// lock-free. Non-OK only for out-of-range indices.
  StatusOr<units::Seconds> Predict(int template_index,
                                   const std::vector<int>& concurrent) const;

  /// Like Predict but returns the full result — including which rung of
  /// the degradation ladder answered and the snapshot version.
  [[nodiscard]] PredictResult PredictDetailed(
      int template_index, const std::vector<int>& concurrent) const;

  /// Answers every request on the caller's thread against ONE snapshot
  /// (pinned once at batch start). Results are positionally aligned with
  /// `batch`, each bit-identical to PredictDetailed on that snapshot.
  std::vector<PredictResult> PredictBatch(
      const std::vector<PredictRequest>& batch) const;

  /// Total single predictions + batch entries answered.
  [[nodiscard]] uint64_t served() const { return served_.Total(); }
  /// Number of Publish() calls (initial snapshot excluded).
  [[nodiscard]] uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }

  /// The health tracker this service consults (null when none was given).
  [[nodiscard]] const std::shared_ptr<HealthTracker>& health() const {
    return options_.health;
  }
  /// Answers served so far from the given ladder tier.
  [[nodiscard]] uint64_t tier_count(DegradationTier tier) const {
    return tier_counts_[static_cast<size_t>(tier)].Total();
  }

 private:
  /// Pure evaluation of one request on one snapshot — no counter side
  /// effects, so a batch folds its tier tallies in once.
  PredictResult PredictOn(const ModelSnapshot& snapshot, int template_index,
                          const std::vector<int>& concurrent) const;

  Options options_;
  SnapshotHolder holder_;
  std::atomic<uint64_t> publishes_{0};
  /// Striped by the reader's epoch slot: bumping them never contends
  /// across serving threads.
  mutable ShardedCounter served_;
  mutable std::array<ShardedCounter, 3> tier_counts_;
};

}  // namespace contender::serve

#endif  // CONTENDER_SERVE_SERVICE_H_
