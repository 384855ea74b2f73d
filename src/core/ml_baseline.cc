#include "core/ml_baseline.h"

#include "core/plan_features.h"
#include "math/metrics.h"
#include "ml/kcca.h"
#include "ml/svm.h"

namespace contender {

MlDataset BuildMlDataset(const Workload& workload,
                         const std::vector<MixObservation>& observations) {
  PlanFeatureExtractor extractor(&workload.catalog());
  // Plans are template-level; build each once.
  std::vector<PlanNode> plans;
  plans.reserve(static_cast<size_t>(workload.size()));
  for (int i = 0; i < workload.size(); ++i) {
    plans.push_back(workload.NominalPlan(i));
  }

  MlDataset data;
  for (const MixObservation& obs : observations) {
    std::vector<const PlanNode*> concurrent;
    for (int c : obs.concurrent_indices) {
      concurrent.push_back(&plans[static_cast<size_t>(c)]);
    }
    data.features.push_back(extractor.ExtractMixFeatures(
        plans[static_cast<size_t>(obs.primary_index)], concurrent));
    data.latencies.push_back(obs.latency.value());
    data.primary_index.push_back(obs.primary_index);
  }
  return data;
}

namespace {

template <typename Model>
double TestMre(const Model& model, const MlDataset& data,
               const std::vector<size_t>& test) {
  std::vector<double> observed, predicted;
  for (size_t i : test) {
    observed.push_back(data.latencies[i]);
    predicted.push_back(model.Predict(data.features[i]));
  }
  return MeanRelativeError(observed, predicted);
}

}  // namespace

StatusOr<double> EvaluateKccaMre(const MlDataset& data,
                                 const std::vector<size_t>& train,
                                 const std::vector<size_t>& test) {
  std::vector<Vector> x;
  std::vector<Vector> y;
  for (size_t i : train) {
    x.push_back(data.features[i]);
    y.push_back({data.latencies[i]});
  }
  KccaModel::Options opts;
  opts.num_projections = 2;
  auto model = KccaModel::Fit(x, y, opts);
  if (!model.ok()) return model.status();

  std::vector<double> observed, predicted;
  for (size_t i : test) {
    observed.push_back(data.latencies[i]);
    predicted.push_back(model->PredictLatency(data.features[i]));
  }
  return MeanRelativeError(observed, predicted);
}

StatusOr<double> EvaluateSvmMre(const MlDataset& data,
                                const std::vector<size_t>& train,
                                const std::vector<size_t>& test,
                                uint64_t seed) {
  std::vector<Vector> x;
  std::vector<double> y;
  for (size_t i : train) {
    x.push_back(data.features[i]);
    y.push_back(data.latencies[i]);
  }
  SvrModel::Options opts;
  opts.seed = seed;
  auto model = SvrModel::Fit(x, y, opts);
  if (!model.ok()) return model.status();
  return TestMre(*model, data, test);
}

StatusOr<NewTemplateMlResult> EvaluateNewTemplateMl(
    const Workload& workload, const MlDataset& data, int held_out_index,
    uint64_t seed) {
  std::vector<size_t> train, test;
  for (size_t i = 0; i < data.features.size(); ++i) {
    if (data.primary_index[i] == held_out_index) {
      test.push_back(i);
    } else {
      // Also exclude mixes that merely contain the held-out template as a
      // concurrent query? The paper holds out the template as a primary;
      // concurrent appearances stay in the training pool, matching the
      // scenario of a new query arriving into a known background workload.
      train.push_back(i);
    }
  }
  if (test.empty()) {
    return Status::InvalidArgument("held-out template has no observations");
  }
  NewTemplateMlResult result;
  result.template_id = workload.tmpl(held_out_index).id;
  result.test_examples = static_cast<int>(test.size());
  auto kcca = EvaluateKccaMre(data, train, test);
  if (!kcca.ok()) return kcca.status();
  result.kcca_mre = *kcca;
  auto svm = EvaluateSvmMre(data, train, test, seed);
  if (!svm.ok()) return svm.status();
  result.svm_mre = *svm;
  return result;
}

}  // namespace contender
