// Bit-parity of the CQI kernel and the degradation ladder against verbatim
// copies of the code they replaced (namespace `reference` below):
//   * core/cqi.cc with a ScanTimes find per (co-runner, fact table) and a
//     CountScanners rescan of the whole mix per (co-runner, table) pair,
//     over a vector of profile pointers;
//   * the ladder (PredictInMix, PredictKnown, PredictNew,
//     PredictNewWithKnownSlope, PredictWithModel, ResolveSpoiler) over a
//     std::map<int, std::map<int, QsModel>> of reference models and an
//     l_max map find per answer;
//   * BuildQsTrainingSet / FitReferenceModels over that CQI, and the
//     refit loop of WithRefitTemplates over the map of maps.
// The copies read a trained predictor only through its public accessors.
// With fail points disarmed, every latency must match bit for bit, every
// tier exactly, and every error in code and message. A failure here means
// a change to the kernel or the model table moved an answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/continuum.h"
#include "core/cqi.h"
#include "core/predictor.h"
#include "core/qs_model.h"
#include "test_support.h"
#include "util/logging.h"
#include "util/random.h"

namespace contender {
namespace reference {
namespace {

// ---- core/cqi.cc before the kernel (verbatim) ---------------------------

Status ValidateIndices(const std::vector<TemplateProfile>& profiles,
                       int primary_index,
                       const std::vector<int>& concurrent_indices) {
  const int n = static_cast<int>(profiles.size());
  if (primary_index < 0 || primary_index >= n) {
    return Status::InvalidArgument("CQI: bad primary index");
  }
  if (concurrent_indices.empty()) {
    return Status::InvalidArgument("CQI: empty concurrent set");
  }
  for (int c : concurrent_indices) {
    if (c < 0 || c >= n) {
      return Status::InvalidArgument("CQI: bad concurrent index");
    }
  }
  return Status::OK();
}

units::Seconds ScanTime(const ScanTimes& scan_times, sim::TableId f) {
  auto it = scan_times.find(f);
  return it == scan_times.end() ? units::Seconds() : it->second;
}

/// h_f: number of concurrent (non-primary) queries scanning fact table f.
int CountScanners(const std::vector<const TemplateProfile*>& concurrent,
                  sim::TableId f) {
  int h = 0;
  for (const TemplateProfile* c : concurrent) {
    if (c->ScansFactTable(f)) ++h;
  }
  return h;
}

/// Eq. 2–4 for the concurrent query at `position`.
StatusOr<CqiTerms> TermsFor(
    const TemplateProfile& primary,
    const std::vector<const TemplateProfile*>& concurrent, size_t position,
    const ScanTimes& scan_times, CqiVariant variant) {
  const TemplateProfile& c = *concurrent[position];

  CqiTerms terms;
  terms.total_io_seconds = c.isolated_latency * c.io_fraction;

  if (variant != CqiVariant::kBaselineIo) {
    // ω_c (Eq. 2): scans shared with the primary.
    for (sim::TableId f : c.fact_tables) {
      if (primary.ScansFactTable(f)) {
        terms.omega += ScanTime(scan_times, f);
      }
    }
  }
  if (variant == CqiVariant::kFull) {
    // τ_c (Eq. 3): scans shared among the non-primary queries only.
    for (sim::TableId f : c.fact_tables) {
      if (primary.ScansFactTable(f)) continue;  // avoid double counting
      const int h = CountScanners(concurrent, f);
      if (h > 1) {
        terms.tau +=
            (1.0 - 1.0 / static_cast<double>(h)) * ScanTime(scan_times, f);
      }
    }
  }

  if (c.isolated_latency.value() <= 0.0) {
    return Status::FailedPrecondition("CQI: non-positive isolated latency");
  }
  // Eq. 4, truncated at zero.
  terms.r =
      std::max(0.0, (terms.total_io_seconds - terms.omega - terms.tau) /
                        c.isolated_latency);  // Seconds / Seconds -> ratio
  return terms;
}

StatusOr<CqiTerms> ComputeCqiTerms(
    const std::vector<TemplateProfile>& profiles,
    const ScanTimes& scan_times, int primary_index,
    const std::vector<int>& concurrent_indices, size_t concurrent_position,
    CqiVariant variant) {
  CONTENDER_RETURN_IF_ERROR(
      ValidateIndices(profiles, primary_index, concurrent_indices));
  if (concurrent_position >= concurrent_indices.size()) {
    return Status::InvalidArgument("CQI: bad concurrent position");
  }
  std::vector<const TemplateProfile*> concurrent;
  for (int c : concurrent_indices) {
    concurrent.push_back(&profiles[static_cast<size_t>(c)]);
  }
  return TermsFor(profiles[static_cast<size_t>(primary_index)], concurrent,
                  concurrent_position, scan_times, variant);
}

StatusOr<units::Cqi> ComputeCqiFor(
    const TemplateProfile& primary,
    const std::vector<const TemplateProfile*>& concurrent,
    const ScanTimes& scan_times, CqiVariant variant) {
  if (concurrent.empty()) {
    return Status::InvalidArgument("CQI: empty concurrent set");
  }
  double sum = 0.0;
  for (size_t i = 0; i < concurrent.size(); ++i) {
    auto terms = TermsFor(primary, concurrent, i, scan_times, variant);
    if (!terms.ok()) return terms.status();
    sum += terms->r;
  }
  // Eq. 5: average competing fraction across the concurrent queries.
  return units::Cqi(sum / static_cast<double>(concurrent.size()));
}

StatusOr<units::Cqi> ComputeCqi(const std::vector<TemplateProfile>& profiles,
                                const ScanTimes& scan_times,
                                int primary_index,
                                const std::vector<int>& concurrent_indices,
                                CqiVariant variant) {
  CONTENDER_RETURN_IF_ERROR(
      ValidateIndices(profiles, primary_index, concurrent_indices));
  std::vector<const TemplateProfile*> concurrent;
  for (int c : concurrent_indices) {
    concurrent.push_back(&profiles[static_cast<size_t>(c)]);
  }
  return ComputeCqiFor(profiles[static_cast<size_t>(primary_index)],
                       concurrent, scan_times, variant);
}

// ---- core/qs_model.cc training sets over that CQI (verbatim; calls to
// ComputeCqi and BuildQsTrainingSet are qualified, since argument-dependent
// lookup also finds the library's) ----------------------------------------

StatusOr<QsTrainingSet> BuildQsTrainingSet(
    const std::vector<TemplateProfile>& profiles,
    const ScanTimes& scan_times,
    const std::vector<MixObservation>& observations, int primary_index,
    units::Mpl mpl, CqiVariant variant) {
  if (primary_index < 0 ||
      static_cast<size_t>(primary_index) >= profiles.size()) {
    return Status::InvalidArgument("BuildQsTrainingSet: bad primary index");
  }
  const TemplateProfile& primary =
      profiles[static_cast<size_t>(primary_index)];
  auto lmax_it = primary.spoiler_latency.find(mpl.value());
  if (lmax_it == primary.spoiler_latency.end()) {
    return Status::FailedPrecondition(
        "BuildQsTrainingSet: no spoiler latency at requested MPL");
  }
  CONTENDER_ASSIGN_OR_RETURN(
      const units::LatencyRange range,
      units::LatencyRange::Make(primary.isolated_latency, lmax_it->second));

  QsTrainingSet set;
  for (const MixObservation& obs : observations) {
    if (obs.primary_index != primary_index || obs.mpl != mpl.value()) continue;
    if (ExceedsContinuum(obs.latency, range.max())) {
      ++set.dropped_outliers;
      continue;
    }
    auto cqi = reference::ComputeCqi(profiles, scan_times, primary_index,
                                     obs.concurrent_indices, variant);
    if (!cqi.ok()) return cqi.status();
    auto point = ContinuumPoint(obs.latency, range);
    if (!point.ok()) return point.status();
    set.cqi.push_back(*cqi);
    set.continuum.push_back(*point);
    set.latency.push_back(obs.latency);
  }
  return set;
}

std::map<int, QsModel> FitReferenceModels(
    const std::vector<TemplateProfile>& profiles,
    const ScanTimes& scan_times,
    const std::vector<MixObservation>& observations, units::Mpl mpl,
    CqiVariant variant) {
  std::map<int, QsModel> models;
  for (size_t t = 0; t < profiles.size(); ++t) {
    auto set = reference::BuildQsTrainingSet(
        profiles, scan_times, observations, static_cast<int>(t), mpl,
        variant);
    if (!set.ok()) continue;
    if (set->cqi.size() < 3) continue;
    auto model = FitQsModel(set->cqi, set->continuum);
    if (!model.ok()) continue;
    models[static_cast<int>(t)] = *model;
  }
  return models;
}

}  // namespace

// ---- core/predictor.cc's ladder over the map of maps (verbatim) ---------

class Ladder {
 public:
  /// Reads `predictor`'s profiles, scan times, reference models and
  /// transfer models at every MPL of `options` (the options it was
  /// trained with) through its public accessors.
  Ladder(const ContenderPredictor& predictor,
         const ContenderPredictor::Options& options)
      : predictor_(predictor),
        options_(options),
        profiles_(predictor.profiles()),
        scan_times_(predictor.scan_times()) {
    for (int mpl : options.mpls) {
      auto models = predictor.ReferenceModels(units::Mpl(mpl));
      CONTENDER_CHECK(models.ok()) << models.status();
      reference_models_[mpl] = *models;
      auto transfer = predictor.TransferModel(units::Mpl(mpl));
      CONTENDER_CHECK(transfer.ok()) << transfer.status();
      transfer_models_.emplace(mpl, *transfer);
    }
  }

  /// WithRefitTemplates' loop over the map of maps.
  void Refit(const std::vector<MixObservation>& observations,
             const std::vector<int>& template_indices) {
    for (const int mpl : options_.mpls) {
      auto& models = reference_models_[mpl];
      for (int t : template_indices) {
        auto set = reference::BuildQsTrainingSet(
            profiles_, scan_times_, observations, t, units::Mpl(mpl),
            options_.variant);
        if (!set.ok() || set->cqi.size() < 3) continue;
        auto model = FitQsModel(set->cqi, set->continuum);
        if (!model.ok()) continue;
        models[t] = *model;
      }
    }
  }

  const std::map<int, std::map<int, QsModel>>& reference_models() const {
    return reference_models_;
  }

  StatusOr<units::Seconds> PredictKnown(
      int template_index, const std::vector<int>& concurrent_indices) const {
    if (template_index < 0 ||
        static_cast<size_t>(template_index) >= profiles_.size()) {
      return Status::InvalidArgument("unknown template index");
    }
    const units::Mpl mpl(static_cast<int>(concurrent_indices.size()) + 1);
    auto models_it = reference_models_.find(mpl.value());
    if (models_it == reference_models_.end()) {
      return Status::NotFound("no reference models at this MPL");
    }
    auto model_it = models_it->second.find(template_index);
    if (model_it == models_it->second.end()) {
      return Status::NotFound("no QS model for this template at this MPL");
    }
    const TemplateProfile& primary =
        profiles_[static_cast<size_t>(template_index)];
    auto l_max = ResolveSpoiler(primary, mpl, SpoilerSource::kMeasured);
    if (!l_max.ok()) return l_max.status();
    return PredictWithModel(primary, model_it->second, concurrent_indices,
                            *l_max);
  }

  StatusOr<units::Seconds> PredictNew(
      const TemplateProfile& new_profile,
      const std::vector<int>& concurrent_indices,
      SpoilerSource spoiler_source) const {
    const units::Mpl mpl(static_cast<int>(concurrent_indices.size()) + 1);
    auto transfer_it = transfer_models_.find(mpl.value());
    if (transfer_it == transfer_models_.end()) {
      return Status::NotFound("no transfer model at this MPL");
    }
    auto l_max = ResolveSpoiler(new_profile, mpl, spoiler_source);
    if (!l_max.ok()) return l_max.status();
    QsModel qs;
    if (options_.transfer_feature == TransferFeature::kIsolatedLatency) {
      qs = transfer_it->second.PredictFromIsolatedLatency(
          new_profile.isolated_latency);
    } else {
      const double slowdown = *l_max / new_profile.isolated_latency;
      qs = transfer_it->second.PredictFromFeatureValue(
          1.0 / std::max(slowdown - 1.0, 0.05));
    }
    return PredictWithModel(new_profile, qs, concurrent_indices, *l_max);
  }

  /// The fail-point probes are left out: the suite runs disarmed, where a
  /// probe never fires.
  TieredPrediction PredictInMix(int template_index,
                                std::vector<int> concurrent,
                                bool allow_full_model) const {
    CONTENDER_CHECK(template_index >= 0 &&
                    static_cast<size_t>(template_index) < profiles_.size())
        << "PredictInMix: unknown template index " << template_index;
    const TemplateProfile& profile =
        profiles_[static_cast<size_t>(template_index)];
    if (concurrent.empty()) {
      return {profile.isolated_latency, DegradationTier::kFullModel};
    }
    std::sort(concurrent.begin(), concurrent.end());
    if (allow_full_model) {
      auto full = PredictKnown(template_index, concurrent);
      if (full.ok()) return {*full, DegradationTier::kFullModel};
    }
    {
      auto transferred =
          PredictNew(profile, concurrent, SpoilerSource::kKnnPredicted);
      if (transferred.ok()) {
        return {*transferred, DegradationTier::kTransferredQs};
      }
    }
    return {profile.isolated_latency, DegradationTier::kIsolatedHeuristic};
  }

  StatusOr<units::Seconds> PredictNewWithKnownSlope(
      const TemplateProfile& new_profile,
      const std::vector<int>& concurrent_indices, double known_slope,
      SpoilerSource spoiler_source) const {
    const units::Mpl mpl(static_cast<int>(concurrent_indices.size()) + 1);
    auto transfer_it = transfer_models_.find(mpl.value());
    if (transfer_it == transfer_models_.end()) {
      return Status::NotFound("no transfer model at this MPL");
    }
    const QsModel qs =
        transfer_it->second.PredictInterceptFromSlope(known_slope);
    auto l_max = ResolveSpoiler(new_profile, mpl, spoiler_source);
    if (!l_max.ok()) return l_max.status();
    return PredictWithModel(new_profile, qs, concurrent_indices, *l_max);
  }

 private:
  StatusOr<units::Seconds> ResolveSpoiler(const TemplateProfile& profile,
                                          units::Mpl mpl,
                                          SpoilerSource source) const {
    if (source == SpoilerSource::kMeasured) {
      auto it = profile.spoiler_latency.find(mpl.value());
      if (it == profile.spoiler_latency.end()) {
        return Status::FailedPrecondition(
            "profile has no measured spoiler latency at this MPL");
      }
      return it->second;
    }
    return predictor_.PredictSpoilerLatency(profile, mpl);
  }

  StatusOr<units::Seconds> PredictWithModel(
      const TemplateProfile& primary, const QsModel& qs,
      const std::vector<int>& concurrent, units::Seconds l_max) const {
    std::vector<const TemplateProfile*> conc;
    for (int c : concurrent) {
      if (c < 0 || static_cast<size_t>(c) >= profiles_.size()) {
        return Status::InvalidArgument("bad concurrent template index");
      }
      conc.push_back(&profiles_[static_cast<size_t>(c)]);
    }
    auto cqi = ComputeCqiFor(primary, conc, scan_times_, options_.variant);
    if (!cqi.ok()) return cqi.status();
    CONTENDER_ASSIGN_OR_RETURN(
        const units::LatencyRange range,
        units::LatencyRange::Make(primary.isolated_latency, l_max));
    const units::ContinuumPoint point(
        std::clamp(qs.PredictContinuum(*cqi).value(), -0.25, 1.25));
    const units::Seconds latency = LatencyFromContinuum(point, range);
    return std::max(latency, 0.5 * primary.isolated_latency);
  }

  const ContenderPredictor& predictor_;
  ContenderPredictor::Options options_;
  const std::vector<TemplateProfile>& profiles_;
  const ScanTimes& scan_times_;
  std::map<int, std::map<int, QsModel>> reference_models_;  // mpl -> models
  std::map<int, QsTransferModel> transfer_models_;          // mpl -> transfer
};

}  // namespace reference

namespace {

using testing::SharedPredictor;
using testing::SharedTrainingData;

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

template <typename T>
void ExpectSameStatus(const StatusOr<T>& got, const StatusOr<T>& want,
                      const std::string& where) {
  ASSERT_EQ(got.ok(), want.ok()) << where << ": got " << got.status()
                                 << ", want " << want.status();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << where;
    EXPECT_EQ(got.status().message(), want.status().message()) << where;
  }
}

void ExpectSame(const StatusOr<units::Seconds>& got,
                const StatusOr<units::Seconds>& want,
                const std::string& where) {
  ExpectSameStatus(got, want, where);
  if (got.ok() && want.ok()) {
    EXPECT_EQ(Bits(got->value()), Bits(want->value()))
        << where << ": " << got->value() << " vs " << want->value();
  }
}

void ExpectSame(const StatusOr<units::Cqi>& got,
                const StatusOr<units::Cqi>& want, const std::string& where) {
  ExpectSameStatus(got, want, where);
  if (got.ok() && want.ok()) {
    EXPECT_EQ(Bits(got->value()), Bits(want->value()))
        << where << ": " << got->value() << " vs " << want->value();
  }
}

void ExpectSame(const StatusOr<CqiTerms>& got,
                const StatusOr<CqiTerms>& want, const std::string& where) {
  ExpectSameStatus(got, want, where);
  if (got.ok() && want.ok()) {
    EXPECT_EQ(Bits(got->total_io_seconds.value()),
              Bits(want->total_io_seconds.value()))
        << where;
    EXPECT_EQ(Bits(got->omega.value()), Bits(want->omega.value())) << where;
    EXPECT_EQ(Bits(got->tau.value()), Bits(want->tau.value())) << where;
    EXPECT_EQ(Bits(got->r), Bits(want->r)) << where;
  }
}

void ExpectSameModels(const std::map<int, QsModel>& got,
                      const std::map<int, QsModel>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (const auto& [t, model] : want) {
    auto it = got.find(t);
    ASSERT_NE(it, got.end()) << where << " template " << t;
    EXPECT_EQ(Bits(it->second.slope), Bits(model.slope)) << where;
    EXPECT_EQ(Bits(it->second.intercept), Bits(model.intercept)) << where;
    EXPECT_EQ(Bits(it->second.r_squared), Bits(model.r_squared)) << where;
  }
}

std::string Describe(const std::vector<int>& mix) {
  std::string out = "{";
  for (size_t i = 0; i < mix.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(mix[i]);
  }
  return out + "}";
}

/// `count` seeded unsorted mixes of `size` indices in [0, n), repeats
/// allowed.
std::vector<std::vector<int>> SeededMixes(uint64_t seed, int n, int size,
                                          int count) {
  Rng rng(seed);
  std::vector<std::vector<int>> mixes(static_cast<size_t>(count));
  for (std::vector<int>& mix : mixes) {
    for (int i = 0; i < size; ++i) {
      mix.push_back(static_cast<int>(rng.UniformInt(0, n - 1)));
    }
  }
  return mixes;
}

// ---- The trained predictors under comparison. ---------------------------

/// Observations that move the models of the refit templates: every
/// training observation, plus a 6% slower copy of each observation of
/// template 5 and a 4% faster copy of each one of template 12.
std::vector<MixObservation> DriftedObservations() {
  std::vector<MixObservation> out = SharedTrainingData().observations;
  const size_t n = out.size();
  for (size_t i = 0; i < n; ++i) {
    if (out[i].primary_index == 5 || out[i].primary_index == 12) {
      MixObservation drifted = out[i];
      drifted.latency =
          drifted.latency * (drifted.primary_index == 5 ? 1.06 : 0.96);
      out.push_back(drifted);
    }
  }
  return out;
}

const std::vector<int>& RefitTemplates() {
  static const std::vector<int> templates = {0, 5, 12, 19};
  return templates;
}

struct Case {
  const char* name;
  ContenderPredictor::Options options;
  const ContenderPredictor* predictor;
  /// Built from the accessors; the Refit case also replays the refit.
  std::unique_ptr<reference::Ladder> ladder;
};

ContenderPredictor TrainWith(const ContenderPredictor::Options& options) {
  const TrainingData& data = SharedTrainingData();
  auto trained = ContenderPredictor::Train(data.profiles, data.scan_times,
                                           data.observations, options);
  CONTENDER_CHECK(trained.ok()) << trained.status();
  return std::move(*trained);
}

const Case& CaseNamed(const std::string& name) {
  static const std::vector<Case>* cases = [] {
    auto* out = new std::vector<Case>();
    auto add = [out](const char* name,
                     const ContenderPredictor::Options& options,
                     const ContenderPredictor* predictor) {
      out->push_back({name, options, predictor,
                      std::make_unique<reference::Ladder>(*predictor,
                                                          options)});
    };
    const ContenderPredictor::Options defaults;
    add("Shared", defaults, &SharedPredictor());
    add("WithoutModelsFor4And11", defaults,
        new ContenderPredictor(testing::TrainWithoutModelsFor({4, 11})));
    {
      // The reference replays the refit on the base predictor's models;
      // the refit predictor's own ReferenceModels are never read.
      auto refit = SharedPredictor().WithRefitTemplates(
          DriftedObservations(), RefitTemplates());
      CONTENDER_CHECK(refit.ok()) << refit.status();
      auto ladder =
          std::make_unique<reference::Ladder>(SharedPredictor(), defaults);
      ladder->Refit(DriftedObservations(), RefitTemplates());
      out->push_back({"Refit", defaults,
                      new ContenderPredictor(std::move(*refit)),
                      std::move(ladder)});
    }
    ContenderPredictor::Options baseline;
    baseline.variant = CqiVariant::kBaselineIo;
    add("BaselineIo", baseline, new ContenderPredictor(TrainWith(baseline)));
    ContenderPredictor::Options positive;
    positive.variant = CqiVariant::kPositiveIo;
    add("PositiveIo", positive, new ContenderPredictor(TrainWith(positive)));
    ContenderPredictor::Options inverse;
    inverse.transfer_feature = TransferFeature::kInverseSpoilerSlowdown;
    add("InverseSpoilerSlowdown", inverse,
        new ContenderPredictor(TrainWith(inverse)));
    return out;
  }();
  for (const Case& c : *cases) {
    if (name == c.name) return c;
  }
  CONTENDER_CHECK(false) << "no parity case " << name;
  return cases->front();
}

class PredictorParityTest : public ::testing::TestWithParam<const char*> {
 protected:
  const Case& current() const { return CaseNamed(GetParam()); }
};

TEST_P(PredictorParityTest, ReferenceModelsMatchTheReferenceFit) {
  const Case& c = current();
  for (int mpl : c.options.mpls) {
    auto got = c.predictor->ReferenceModels(units::Mpl(mpl));
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameModels(*got, c.ladder->reference_models().at(mpl),
                     "MPL " + std::to_string(mpl));
  }
  // The refit case's reference replayed the refit; the others read the
  // predictor, so check those against an independent reference fit.
  if (std::string(c.name) == "Refit") return;
  const TrainingData& data = SharedTrainingData();
  std::vector<MixObservation> observations = data.observations;
  if (std::string(c.name) == "WithoutModelsFor4And11") {
    std::erase_if(observations, [](const MixObservation& o) {
      return o.primary_index == 4 || o.primary_index == 11;
    });
  }
  for (int mpl : c.options.mpls) {
    auto got = c.predictor->ReferenceModels(units::Mpl(mpl));
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameModels(*got,
                     reference::FitReferenceModels(
                         data.profiles, data.scan_times, observations,
                         units::Mpl(mpl), c.options.variant),
                     "refit at MPL " + std::to_string(mpl));
  }
  for (int mpl : {0, 1, 6, 7, -1}) {
    auto got = c.predictor->ReferenceModels(units::Mpl(mpl));
    ASSERT_FALSE(got.ok()) << "MPL " << mpl;
    EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(got.status().message(), "no reference models at this MPL");
  }
}

TEST_P(PredictorParityTest, LadderMatchesOnSeededMixes) {
  const Case& c = current();
  const ContenderPredictor& p = *c.predictor;
  const int n = static_cast<int>(p.profiles().size());
  for (int t = 0; t < n; ++t) {
    for (int mpl = 1; mpl <= 7; ++mpl) {
      for (const std::vector<int>& mix : SeededMixes(
               static_cast<uint64_t>(1000 * t + mpl), n, mpl - 1, 6)) {
        const std::string where = std::string(c.name) + " t=" +
                                  std::to_string(t) + " mix=" +
                                  Describe(mix);
        for (bool allow_full_model : {true, false}) {
          const TieredPrediction got = p.PredictInMix(t, mix, allow_full_model);
          const TieredPrediction want =
              c.ladder->PredictInMix(t, mix, allow_full_model);
          EXPECT_EQ(Bits(got.latency.value()), Bits(want.latency.value()))
              << where << " allow_full_model=" << allow_full_model;
          EXPECT_EQ(got.tier, want.tier)
              << where << " allow_full_model=" << allow_full_model;
        }
        // The ladder's rungs on the unsorted mix, errors included.
        const TemplateProfile& profile = p.profiles()[static_cast<size_t>(t)];
        ExpectSame(p.PredictKnown(t, mix), c.ladder->PredictKnown(t, mix),
                   where + " PredictKnown");
        for (SpoilerSource source :
             {SpoilerSource::kMeasured, SpoilerSource::kKnnPredicted}) {
          ExpectSame(p.PredictNew(profile, mix, source),
                     c.ladder->PredictNew(profile, mix, source),
                     where + " PredictNew");
          ExpectSame(
              p.PredictNewWithKnownSlope(profile, mix, 0.75, source),
              c.ladder->PredictNewWithKnownSlope(profile, mix, 0.75, source),
              where + " PredictNewWithKnownSlope");
        }
      }
    }
  }
}

TEST_P(PredictorParityTest, ErrorsMatch) {
  const Case& c = current();
  const ContenderPredictor& p = *c.predictor;
  const int n = static_cast<int>(p.profiles().size());
  const std::vector<std::pair<int, std::vector<int>>> known = {
      {-1, {0}},        {n, {0}},          {999, {1, 2}},
      {0, {999}},       {0, {-5, 1}},      {3, {1, n}},
      {0, {}},          {2, {1, 2, 3, 4, 5, 6}}};
  for (const auto& [t, mix] : known) {
    ExpectSame(p.PredictKnown(t, mix), c.ladder->PredictKnown(t, mix),
               "PredictKnown t=" + std::to_string(t) + " " + Describe(mix));
  }
  // A new template without measured spoiler latencies, and co-runners
  // outside the workload.
  TemplateProfile novel = p.profiles()[7];
  novel.spoiler_latency.clear();
  TemplateProfile idle = p.profiles()[9];
  idle.isolated_latency = units::Seconds(0.0);
  for (const TemplateProfile& profile : {p.profiles()[3], novel, idle}) {
    for (const std::vector<int>& mix :
         std::vector<std::vector<int>>{{1}, {4, 2}, {999}, {-5, 1}, {}}) {
      for (SpoilerSource source :
           {SpoilerSource::kMeasured, SpoilerSource::kKnnPredicted}) {
        const std::string where = "profile " +
                                  std::to_string(profile.template_index) +
                                  " " + Describe(mix);
        ExpectSame(p.PredictNew(profile, mix, source),
                   c.ladder->PredictNew(profile, mix, source),
                   where + " PredictNew");
        ExpectSame(
            p.PredictNewWithKnownSlope(profile, mix, 1.5, source),
            c.ladder->PredictNewWithKnownSlope(profile, mix, 1.5, source),
            where + " PredictNewWithKnownSlope");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Predictors, PredictorParityTest,
                         ::testing::Values("Shared", "WithoutModelsFor4And11",
                                           "Refit", "BaselineIo",
                                           "PositiveIo",
                                           "InverseSpoilerSlowdown"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

// ---- The CQI kernel on its own. -----------------------------------------

constexpr CqiVariant kVariants[] = {CqiVariant::kBaselineIo,
                                    CqiVariant::kPositiveIo, CqiVariant::kFull};

/// Compares ComputeCqi, ComputeCqiTerms at every position and the
/// profile-primary form against the reference on one (primary, mix).
void ExpectCqiParity(const std::vector<TemplateProfile>& profiles,
                     const ScanTimes& scans, int primary,
                     const std::vector<int>& mix, const std::string& where) {
  for (CqiVariant variant : kVariants) {
    const std::string at =
        where + " variant " + std::to_string(static_cast<int>(variant));
    ExpectSame(ComputeCqi(profiles, scans, primary, mix, variant),
               reference::ComputeCqi(profiles, scans, primary, mix, variant),
               at + " ComputeCqi");
    for (size_t pos = 0; pos <= mix.size(); ++pos) {
      ExpectSame(
          ComputeCqiTerms(profiles, scans, primary, mix, pos, variant),
          reference::ComputeCqiTerms(profiles, scans, primary, mix, pos,
                                     variant),
          at + " ComputeCqiTerms position " + std::to_string(pos));
    }
    if (primary < 0 || static_cast<size_t>(primary) >= profiles.size()) {
      continue;
    }
    // A copy of the primary outside `profiles`, as PredictNew passes it.
    const TemplateProfile outside = profiles[static_cast<size_t>(primary)];
    bool valid = !mix.empty();
    std::vector<const TemplateProfile*> pointers;
    for (int c : mix) {
      valid &= c >= 0 && static_cast<size_t>(c) < profiles.size();
      if (valid) pointers.push_back(&profiles[static_cast<size_t>(c)]);
    }
    if (!valid) continue;
    ExpectSame(ComputeCqiFor(outside, profiles, mix, scans, variant),
               reference::ComputeCqiFor(outside, pointers, scans, variant),
               at + " ComputeCqiFor");
  }
}

// Hand-built profiles for the bit-identity traps. Scan times cover tables
// 0 and 1; table 2 is missing from ScanTimes (s_f = 0).
//   0: scans {1}             (a primary that shares table 1)
//   1: lists table 0 twice   (h_f counts it once, ω adds s_f per listing)
//   2: scans {0, 2}          (table 2 has no scan time)
//   3: no fact tables
//   4: scans {0}, l_min = 0  (fails every CQI it is a co-runner in)
//   5: scans {1, 0}
//   6: scans {2, 0, 2}
std::vector<TemplateProfile> TrapProfiles() {
  struct Spec {
    double l_min, p;
    std::vector<sim::TableId> tables;
  };
  const std::vector<Spec> specs = {
      {100.0, 0.9, {1}},    {200.0, 0.8, {0, 0}}, {50.0, 1.0, {0, 2}},
      {80.0, 0.7, {}},      {0.0, 0.5, {0}},      {120.0, 0.6, {1, 0}},
      {90.0, 0.95, {2, 0, 2}}};
  std::vector<TemplateProfile> out;
  for (const Spec& s : specs) {
    TemplateProfile t;
    t.template_index = static_cast<int>(out.size());
    t.isolated_latency = units::Seconds(s.l_min);
    t.io_fraction = units::Fraction::Clamp(s.p);
    t.fact_tables = s.tables;
    out.push_back(t);
  }
  return out;
}

ScanTimes TrapScanTimes() {
  return {{0, units::Seconds(30.0)}, {1, units::Seconds(20.0)}};
}

TEST(CqiParityTest, DuplicatedFactTableCountsOnceInScanners) {
  const auto profiles = TrapProfiles();
  const auto scans = TrapScanTimes();
  // Primary 0 does not scan table 0; co-runners 1 (table 0 listed twice)
  // and 2 both scan it, so h_0 = 2 and each listing of co-runner 1 earns
  // (1 - 1/2) * 30 = 15 of τ.
  auto terms =
      ComputeCqiTerms(profiles, scans, 0, {1, 2}, 0, CqiVariant::kFull);
  ASSERT_TRUE(terms.ok()) << terms.status();
  EXPECT_EQ(terms->tau.value(), 30.0);
  EXPECT_EQ(terms->omega.value(), 0.0);
  // Primary 5 scans table 0: ω adds s_0 once per listing.
  terms = ComputeCqiTerms(profiles, scans, 5, {1}, 0, CqiVariant::kFull);
  ASSERT_TRUE(terms.ok()) << terms.status();
  EXPECT_EQ(terms->omega.value(), 60.0);
  ExpectCqiParity(profiles, scans, 0, {1, 2}, "dup");
  ExpectCqiParity(profiles, scans, 0, {1, 1}, "dup self-mix");
  ExpectCqiParity(profiles, scans, 5, {1, 2, 1}, "dup shared");
}

TEST(CqiParityTest, TableMissingFromScanTimesCountsZero) {
  const auto profiles = TrapProfiles();
  const auto scans = TrapScanTimes();
  ExpectCqiParity(profiles, scans, 0, {2, 6}, "missing");
  ExpectCqiParity(profiles, scans, 6, {2, 6, 6}, "missing shared");
  ExpectCqiParity(profiles, {}, 0, {1, 2, 5}, "no scan times");
}

TEST(CqiParityTest, EmptyFactTables) {
  const auto profiles = TrapProfiles();
  const auto scans = TrapScanTimes();
  ExpectCqiParity(profiles, scans, 3, {1, 2}, "empty primary");
  ExpectCqiParity(profiles, scans, 0, {3, 3}, "empty co-runners");
  ExpectCqiParity(profiles, scans, 5, {3, 1, 3}, "empty among others");
}

TEST(CqiParityTest, NonPositiveIsolatedLatencyFailsAlike) {
  const auto profiles = TrapProfiles();
  const auto scans = TrapScanTimes();
  auto cqi = ComputeCqi(profiles, scans, 0, {1, 4}, CqiVariant::kFull);
  ASSERT_FALSE(cqi.ok());
  EXPECT_EQ(cqi.status().code(), StatusCode::kFailedPrecondition);
  // ComputeCqiTerms fails only at the zero-latency position.
  EXPECT_TRUE(
      ComputeCqiTerms(profiles, scans, 0, {1, 4}, 0, CqiVariant::kFull).ok());
  EXPECT_FALSE(
      ComputeCqiTerms(profiles, scans, 0, {1, 4}, 1, CqiVariant::kFull).ok());
  ExpectCqiParity(profiles, scans, 0, {4}, "zero latency");
  ExpectCqiParity(profiles, scans, 1, {2, 4, 4}, "zero latency late");
  // The primary's own l_min never enters the CQI.
  ExpectCqiParity(profiles, scans, 4, {1, 2}, "zero-latency primary");
}

TEST(CqiParityTest, InvalidArgumentsFailAlike) {
  const auto profiles = TrapProfiles();
  const auto scans = TrapScanTimes();
  ExpectCqiParity(profiles, scans, -1, {1}, "bad primary");
  ExpectCqiParity(profiles, scans, 7, {}, "bad primary, empty");
  ExpectCqiParity(profiles, scans, 0, {}, "empty");
  ExpectCqiParity(profiles, scans, 0, {1, 7}, "bad co-runner");
  ExpectCqiParity(profiles, scans, 0, {-2}, "negative co-runner");
}

TEST(CqiParityTest, SeededTrapMixes) {
  const auto profiles = TrapProfiles();
  const auto scans = TrapScanTimes();
  const int n = static_cast<int>(profiles.size());
  for (int primary = 0; primary < n; ++primary) {
    for (int size = 1; size <= 6; ++size) {
      for (const std::vector<int>& mix :
           SeededMixes(static_cast<uint64_t>(77 * primary + size), n, size,
                       20)) {
        ExpectCqiParity(profiles, scans, primary, mix,
                        "primary " + std::to_string(primary) + " mix " +
                            Describe(mix));
      }
    }
  }
}

TEST(CqiParityTest, SeededWorkloadMixes) {
  const TrainingData& data = SharedTrainingData();
  const int n = static_cast<int>(data.profiles.size());
  for (int primary = 0; primary < n; ++primary) {
    for (int size = 1; size <= 6; ++size) {
      for (const std::vector<int>& mix :
           SeededMixes(static_cast<uint64_t>(31 * primary + size), n, size,
                       8)) {
        ExpectCqiParity(data.profiles, data.scan_times, primary, mix,
                        "primary " + std::to_string(primary) + " mix " +
                            Describe(mix));
      }
    }
  }
}

}  // namespace
}  // namespace contender
