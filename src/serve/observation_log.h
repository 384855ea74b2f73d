// Streaming ingest of observed concurrent latencies. Each record is a
// MixObservation — (template, mix, MPL, observed latency) — validated and
// scored against the *live* snapshot at ingest time: the observation's
// continuum point (Eq. 6, against the template's [l_min, l_max] range at
// its MPL) minus the snapshot's predicted continuum point is the residual
// the RefitController's drift trigger watches. The prediction is the
// ladder's answer with the full model allowed (what ModelSnapshot::
// PredictInMix returns), so a record at a (template, MPL) without a QS
// model is scored against the transferred-QS answer serving gives. Records
// accumulate in a pending buffer until the controller drains them into
// the training set.
//
// Concurrency: one mutex guards the log's buffers and counters. Ingest
// scores the record against an epoch-pinned view of the service's
// lock-free SnapshotHolder (no refcount bump) before taking it, so the
// lock covers only the append.
//
// Determinism: with no ladder fail point armed, the residual is a pure
// function of (observation, snapshot), and Drain returns records in
// ingest order, replaying the residual summary in that order.
//
// Failure handling: each accepted residual scored against a tier-0 answer
// also feeds the service's HealthTracker (when one is attached; the
// breaker gates only tier 0), records rejected because the
// pending buffer is full are counted in overflow_dropped(), and batches a
// refit abandoned are quarantined into a bounded dead-letter buffer
// (Quarantine/TakeDeadLetter) instead of silently re-entering training.

#ifndef CONTENDER_SERVE_OBSERVATION_LOG_H_
#define CONTENDER_SERVE_OBSERVATION_LOG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/template_profile.h"
#include "serve/service.h"
#include "util/mutex.h"
#include "util/statusor.h"
#include "util/summary_stats.h"
#include "util/thread_annotations.h"

namespace contender::serve {

/// What Ingest computed for one accepted record.
struct IngestResult {
  /// Observed minus predicted continuum point (signed; relative latency
  /// error when the snapshot has no spoiler range at the record's MPL).
  double continuum_residual = 0.0;
  /// Version of the snapshot the residual was computed against.
  uint64_t snapshot_version = 0;
};

/// One drained refit batch.
struct ObservationBatch {
  /// The pending records, in ingest order.
  std::vector<MixObservation> observations;
  /// Mean |continuum_residual| over those records (0 when empty),
  /// accumulated in ingest order.
  double mean_abs_residual = 0.0;
};

/// Thread-safe streaming log of latency observations for one service.
class ObservationLog {
 public:
  /// Pending-buffer bound; Ingest rejects past it with ResourceExhausted
  /// (the controller is not draining — dropping silently would skew the
  /// refit toward old data).
  static constexpr size_t kPendingCapacity = 65536;
  /// Dead-letter-buffer bound; Quarantine drops (and counts) past it.
  static constexpr size_t kDeadLetterCapacity = 1024;

  /// `service` must outlive the log.
  explicit ObservationLog(const PredictionService* service);

  ObservationLog(const ObservationLog&) = delete;
  ObservationLog& operator=(const ObservationLog&) = delete;

  /// Validates, scores and appends one record. InvalidArgument for
  /// out-of-range indices, an MPL that does not match the mix size, or a
  /// latency that is not a positive finite number; ResourceExhausted when
  /// the pending buffer is full.
  StatusOr<IngestResult> Ingest(const MixObservation& observation);

  /// Removes and returns every pending record, in ingest order, with its
  /// residual summary.
  ObservationBatch Drain();

  /// Parks records whose refit failed in the bounded dead-letter buffer
  /// (they are suspected of poisoning the fit, so they must NOT rejoin
  /// the training set automatically). Past kDeadLetterCapacity the
  /// oldest survivors stay and the excess is dropped and counted.
  void Quarantine(std::vector<MixObservation> observations);

  /// Removes and returns the dead-letter buffer (for offline forensics).
  [[nodiscard]] std::vector<MixObservation> TakeDeadLetter();

  /// Pending records and their mean |residual| (the refit triggers), and
  /// lifetime counters.
  [[nodiscard]] size_t pending() const;
  [[nodiscard]] double pending_mean_abs_residual() const;
  [[nodiscard]] uint64_t ingested() const;
  [[nodiscard]] uint64_t rejected() const;
  /// Valid records rejected only because the pending buffer was full.
  [[nodiscard]] uint64_t overflow_dropped() const;
  /// Records ever quarantined / currently parked / dropped because the
  /// dead-letter buffer itself was full.
  [[nodiscard]] uint64_t quarantined() const;
  [[nodiscard]] size_t dead_letter_pending() const;
  [[nodiscard]] uint64_t dead_letter_dropped() const;

 private:
  /// One accepted record plus the residual it was scored with (kept so
  /// Drain can replay the summary without re-predicting).
  struct PendingRecord {
    MixObservation observation;
    double abs_residual = 0.0;
  };

  const PredictionService* const service_;

  mutable Mutex mutex_;
  std::vector<PendingRecord> pending_ GUARDED_BY(mutex_);
  uint64_t ingested_ GUARDED_BY(mutex_) = 0;
  uint64_t rejected_ GUARDED_BY(mutex_) = 0;
  uint64_t overflow_dropped_ GUARDED_BY(mutex_) = 0;
  std::vector<MixObservation> dead_letter_ GUARDED_BY(mutex_);
  uint64_t quarantined_ GUARDED_BY(mutex_) = 0;
  uint64_t dead_letter_dropped_ GUARDED_BY(mutex_) = 0;
};

}  // namespace contender::serve

#endif  // CONTENDER_SERVE_OBSERVATION_LOG_H_
