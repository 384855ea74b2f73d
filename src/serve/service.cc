#include "serve/service.h"

#include <algorithm>
#include <future>
#include <utility>

#include "util/logging.h"

namespace contender::serve {

PredictionService::PredictionService(
    std::shared_ptr<const ModelSnapshot> initial)
    : PredictionService(std::move(initial), Options()) {}

PredictionService::PredictionService(
    std::shared_ptr<const ModelSnapshot> initial, const Options& options)
    : options_(options),
      holder_(std::move(initial)),  // CHECKs non-null
      pool_(options.num_threads <= 0 ? ThreadPool::DefaultThreads()
                                     : options.num_threads) {}

std::shared_ptr<const ModelSnapshot> PredictionService::snapshot() const {
  return holder_.shared();
}

void PredictionService::Publish(std::shared_ptr<const ModelSnapshot> next) {
  CONTENDER_CHECK(next != nullptr)
      << "PredictionService: cannot publish a null snapshot";
  holder_.Publish(std::move(next));
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

PredictResult PredictionService::PredictOn(
    const ModelSnapshot& snapshot, int template_index,
    const std::vector<int>& concurrent) const {
  PredictResult result;
  result.snapshot_version = snapshot.version();
  const int n = snapshot.num_templates();
  if (template_index < 0 || template_index >= n) {
    result.status =
        Status::InvalidArgument("PredictionService: bad template index");
    return result;
  }
  for (int c : concurrent) {
    if (c < 0 || c >= n) {
      result.status = Status::InvalidArgument(
          "PredictionService: bad concurrent template index");
      return result;
    }
  }
  // An open breaker quarantines the template's own model: the ladder
  // starts at tier 1 (transferred-QS). Closed and half-open both allow
  // tier 0 — half-open IS the recovery probe.
  const bool allow_full_model =
      options_.health == nullptr ||
      options_.health->state(template_index) != BreakerState::kOpen;
  const TieredPrediction answer = snapshot.predictor().PredictInMix(
      template_index, concurrent, allow_full_model);
  result.latency = answer.latency;
  result.tier = answer.tier;
  return result;
}

void PredictionService::AddTierCounts(
    int stripe, const std::array<uint64_t, 3>& counts) const {
  for (size_t t = 0; t < counts.size(); ++t) {
    if (counts[t] != 0) tier_counts_[t].Add(stripe, counts[t]);
  }
}

StatusOr<units::Seconds> PredictionService::Predict(
    int template_index, const std::vector<int>& concurrent) const {
  const PredictResult result = PredictDetailed(template_index, concurrent);
  if (!result.status.ok()) return result.status;
  return result.latency;
}

PredictResult PredictionService::PredictDetailed(
    int template_index, const std::vector<int>& concurrent) const {
  const SnapshotHolder::View view = holder_.Acquire();
  const PredictResult result = PredictOn(*view, template_index, concurrent);
  served_.Add(view.stats_slot());
  if (result.status.ok()) {
    tier_counts_[static_cast<size_t>(result.tier)].Add(view.stats_slot());
  }
  return result;
}

std::vector<PredictResult> PredictionService::PredictBatch(
    const std::vector<PredictRequest>& batch) const {
  // One pinned snapshot for the whole batch: every answer is mutually
  // consistent even if a Publish lands mid-batch.
  const SnapshotHolder::View view = holder_.Acquire();
  std::vector<PredictResult> results(batch.size());
  served_.Add(view.stats_slot(), batch.size());
  if (batch.size() <= kInlineBatchLimit ||
      pool_.num_threads() < 2) {
    std::array<uint64_t, 3> counts{};
    for (size_t i = 0; i < batch.size(); ++i) {
      results[i] = PredictOn(*view, batch[i].template_index,
                             batch[i].concurrent);
      if (results[i].status.ok()) {
        ++counts[static_cast<size_t>(results[i].tier)];
      }
    }
    AddTierCounts(view.stats_slot(), counts);
    return results;
  }
  // Chunked fan-out; each task writes a disjoint slice, so no result-side
  // synchronization is needed and the output is identical to the inline
  // path (each entry is a pure function of (snapshot, request)). Tier
  // tallies accumulate per chunk and fold in with one striped Add per
  // tier, so workers never rendezvous on a shared counter line.
  const size_t chunks =
      std::min(batch.size(), static_cast<size_t>(pool_.num_threads()) * 2);
  const size_t per_chunk = (batch.size() + chunks - 1) / chunks;
  const ModelSnapshot* snap = view.get();
  std::vector<std::future<void>> pending;
  pending.reserve(chunks);
  int stripe = 0;
  for (size_t start = 0; start < batch.size(); start += per_chunk, ++stripe) {
    const size_t end = std::min(start + per_chunk, batch.size());
    pending.push_back(
        pool_.Submit([this, snap, &batch, &results, start, end, stripe] {
          std::array<uint64_t, 3> counts{};
          for (size_t i = start; i < end; ++i) {
            results[i] = PredictOn(*snap, batch[i].template_index,
                                   batch[i].concurrent);
            if (results[i].status.ok()) {
              ++counts[static_cast<size_t>(results[i].tier)];
            }
          }
          AddTierCounts(stripe, counts);
        }));
  }
  for (std::future<void>& f : pending) f.get();
  return results;
}

}  // namespace contender::serve
