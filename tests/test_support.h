// Shared fixtures: the paper workload, a lazily-collected training data set
// and a trained predictor, built once per test binary (collection is fast
// but not free), plus held-out-template reindexing helpers used by the
// predictor and reproduction suites.

#ifndef CONTENDER_TESTS_TEST_SUPPORT_H_
#define CONTENDER_TESTS_TEST_SUPPORT_H_

#include <utility>
#include <vector>

#include "core/predictor.h"
#include "util/logging.h"
#include "workload/sampler.h"
#include "workload/workload.h"

namespace contender::testing {

/// The paper workload (25 templates over TPC-DS SF=100).
inline const Workload& PaperWorkload() {
  static const Workload* w = new Workload(Workload::Paper());
  return *w;
}

/// Default hardware model.
inline const sim::SimConfig& DefaultConfig() {
  static const sim::SimConfig config;
  return config;
}

/// Full training data (profiles, scan times, mix observations at MPL 2-5),
/// collected once with a fixed seed.
inline const TrainingData& SharedTrainingData() {
  static const TrainingData* data = [] {
    WorkloadSampler::Options options;
    WorkloadSampler sampler(&PaperWorkload(), DefaultConfig(), options);
    auto collected = sampler.CollectAll();
    CONTENDER_CHECK(collected.ok()) << collected.status();
    return new TrainingData(std::move(*collected));
  }();
  return *data;
}

/// Profile lookup by paper template id; CHECK-fails when missing.
inline const TemplateProfile& ProfileById(const TrainingData& data, int id) {
  for (const TemplateProfile& p : data.profiles) {
    if (p.template_id == id) return p;
  }
  CONTENDER_CHECK(false) << "no profile for template id " << id;
  static TemplateProfile dummy;
  return dummy;
}

/// A predictor trained once on SharedTrainingData with default options.
inline const ContenderPredictor& SharedPredictor() {
  static const ContenderPredictor* predictor = [] {
    const TrainingData& data = SharedTrainingData();
    ContenderPredictor::Options opts;
    auto trained = ContenderPredictor::Train(data.profiles, data.scan_times,
                                             data.observations, opts);
    CONTENDER_CHECK(trained.ok()) << trained.status();
    return new ContenderPredictor(std::move(*trained));
  }();
  return *predictor;
}

/// A predictor trained on SharedTrainingData without the in-mix
/// observations whose primary template is in `templates` (the adhoc-novel
/// construction of bench_scenarios): those templates keep their profiles
/// but have no QS reference model at any MPL.
inline ContenderPredictor TrainWithoutModelsFor(
    const std::vector<int>& templates) {
  const TrainingData& data = SharedTrainingData();
  std::vector<MixObservation> kept;
  for (const MixObservation& o : data.observations) {
    bool dropped = false;
    for (int t : templates) dropped |= (o.primary_index == t);
    if (!dropped) kept.push_back(o);
  }
  auto trained = ContenderPredictor::Train(data.profiles, data.scan_times,
                                           kept, ContenderPredictor::Options{});
  CONTENDER_CHECK(trained.ok()) << trained.status();
  return std::move(*trained);
}

/// A training view with some templates held out: profiles reindexed,
/// observations touching a held-out template dropped.
struct HeldOutTraining {
  std::vector<TemplateProfile> profiles;
  std::vector<MixObservation> observations;
  /// Maps original template index -> reindexed position (-1 if held out).
  std::vector<int> remap;

  /// Remaps original concurrent indices; returns false when any partner is
  /// held out (the mix is unusable for held-out evaluation).
  bool RemapConcurrent(const std::vector<int>& concurrent,
                       std::vector<int>* out) const {
    out->clear();
    for (int c : concurrent) {
      const int mapped = remap[static_cast<size_t>(c)];
      if (mapped < 0) return false;
      out->push_back(mapped);
    }
    return true;
  }
};

/// Builds the held-out view of `data` (profiles reindexed contiguously;
/// observations whose primary or partners are held out dropped).
inline HeldOutTraining MakeHeldOutTraining(const TrainingData& data,
                                           const std::vector<int>& held_out) {
  HeldOutTraining view;
  view.remap.assign(data.profiles.size(), -1);
  auto is_held = [&held_out](int idx) {
    for (int h : held_out) {
      if (h == idx) return true;
    }
    return false;
  };
  int next = 0;
  for (const TemplateProfile& p : data.profiles) {
    if (is_held(p.template_index)) continue;
    TemplateProfile copy = p;
    view.remap[static_cast<size_t>(p.template_index)] = next;
    copy.template_index = next++;
    view.profiles.push_back(std::move(copy));
  }
  for (const MixObservation& o : data.observations) {
    bool touches = is_held(o.primary_index);
    for (int c : o.concurrent_indices) touches |= is_held(c);
    if (touches) continue;
    MixObservation copy = o;
    copy.primary_index = view.remap[static_cast<size_t>(o.primary_index)];
    for (int& c : copy.concurrent_indices) {
      c = view.remap[static_cast<size_t>(c)];
    }
    view.observations.push_back(std::move(copy));
  }
  return view;
}

}  // namespace contender::testing

#endif  // CONTENDER_TESTS_TEST_SUPPORT_H_
