// Chaos suite for the serving and scheduling paths (DESIGN.md §11).
//
// Arms the registered fail points — refit fit, observation ingest,
// both core ladder tiers, thread-pool submit — while client threads keep
// predicting, and asserts the invariants that define graceful degradation:
//   * no deadlock and no torn snapshot (every batch answers from ONE
//     version) under concurrent chaos;
//   * every answer carries a truthful degradation tier: recomputing the
//     stamped tier's model with fail points disarmed reproduces the
//     latency bit-exactly;
//   * a fixed CONTENDER_CHAOS_SEED (here: SetRootSeed) reproduces the
//     whole degraded answer sequence bit-exactly across runs;
//   * with everything disarmed, serving is bit-identical to the plain
//     PredictInMix path.
//
// Runs under the `chaos` ctest label in the ASan/UBSan and TSan CI jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "serve/health.h"
#include "serve/observation_log.h"
#include "serve/refit_controller.h"
#include "serve/service.h"
#include "test_support.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace contender::serve {
namespace {

using contender::testing::SharedPredictor;
using contender::testing::SharedTrainingData;

std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t version = 1) {
  return ModelSnapshot::Create(SharedPredictor(), version);
}

// The full serving stack with an attached health tracker.
struct ChaosStack {
  ChaosStack() {
    PredictionService::Options service_options;
    service_options.health = std::make_shared<HealthTracker>(
        static_cast<int>(SharedPredictor().profiles().size()));
    // Pin the batch pool width: PredictBatch only fans out (and so only
    // probes util.thread_pool.submit) with >= 2 workers, and CI hosts can
    // be single-core.
    service_options.num_threads = 4;
    service = std::make_unique<PredictionService>(MakeSnapshot(),
                                                  service_options);
    log = std::make_unique<ObservationLog>(service.get());
    RefitOptions refit_options;
    refit_options.min_new_observations = 8;
    controller = std::make_unique<RefitController>(
        service.get(), log.get(), SharedTrainingData().observations,
        refit_options);
  }

  std::unique_ptr<PredictionService> service;
  std::unique_ptr<ObservationLog> log;
  std::unique_ptr<RefitController> controller;
};

PredictRequest DrawRequest(Rng* rng, int num_templates) {
  PredictRequest r;
  r.template_index = static_cast<int>(
      rng->UniformInt(static_cast<uint64_t>(num_templates)));
  const uint64_t mix_size = rng->UniformInt(4);
  for (uint64_t j = 0; j < mix_size; ++j) {
    r.concurrent.push_back(static_cast<int>(
        rng->UniformInt(static_cast<uint64_t>(num_templates))));
  }
  return r;
}

// Recomputes the answer the stamped tier claims to have produced, with all
// fail points disarmed — the audit that makes degraded answers truthful.
units::Seconds RecomputeForTier(const ModelSnapshot& snapshot,
                                const PredictRequest& request,
                                DegradationTier tier) {
  const ContenderPredictor& predictor = snapshot.predictor();
  const TemplateProfile& profile =
      predictor.profiles()[static_cast<size_t>(request.template_index)];
  if (request.concurrent.empty()) return profile.isolated_latency;
  std::vector<int> canonical = request.concurrent;
  std::sort(canonical.begin(), canonical.end());
  switch (tier) {
    case DegradationTier::kFullModel: {
      auto full = predictor.PredictKnown(request.template_index, canonical);
      CONTENDER_CHECK(full.ok()) << full.status();
      return *full;
    }
    case DegradationTier::kTransferredQs: {
      auto transferred =
          predictor.PredictNew(profile, canonical,
                               SpoilerSource::kKnnPredicted);
      CONTENDER_CHECK(transferred.ok()) << transferred.status();
      return *transferred;
    }
    case DegradationTier::kIsolatedHeuristic:
      return profile.isolated_latency;
  }
  CONTENDER_CHECK(false) << "bad tier";
  return profile.isolated_latency;
}

// Every test restores a pristine registry: disarmed sites, root seed 0.
class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FailPointRegistry::Global().DisarmAll();
    FailPointRegistry::Global().SetRootSeed(0);
  }

  FailPointRegistry& registry() { return FailPointRegistry::Global(); }
};

const char* const kServeSites[] = {
    "serve.observation_log.ingest",
    "serve.refit.fit",
};

// The degradation ladder's tier sites, probed by serving and scheduling
// alike (ContenderPredictor::PredictInMix).
const char* const kLadderSites[] = {
    "core.ladder.full_model",
    "core.ladder.transfer",
};

TEST_F(ChaosTest, RegisteredSitesCoverServeSchedAndUtil) {
  // Touch every hosting module so its static registrations ran.
  ChaosStack stack;
  sched::MixOracle oracle(&SharedPredictor());
  (void)oracle.PredictInMix(0, {1});

  const std::vector<std::string> serve_sites = registry().SiteNames("serve.");
  for (const char* site : kServeSites) {
    EXPECT_NE(std::find(serve_sites.begin(), serve_sites.end(), site),
              serve_sites.end())
        << site;
  }
  // The scheduler's oracle probes the same ladder sites serving does.
  const std::vector<std::string> core_sites = registry().SiteNames("core.");
  for (const char* site : kLadderSites) {
    EXPECT_NE(std::find(core_sites.begin(), core_sites.end(), site),
              core_sites.end())
        << site;
  }
  EXPECT_TRUE(registry().SiteNames("sched.").empty());
  const std::vector<std::string> util_sites = registry().SiteNames("util.");
  EXPECT_NE(std::find(util_sites.begin(), util_sites.end(),
                      "util.thread_pool.submit"),
            util_sites.end());
}

// The concurrency invariant test: four client threads predict while chaos
// fires in refit, ingest, both ladder tiers and the thread pool.
// Passing under TSan means no deadlock and no data race; the assertions
// mean no torn snapshot and no invalid answer, ever.
TEST_F(ChaosTest, ProbabilityChaosFourClientThreadsStayConsistent) {
  ChaosStack stack;
  registry().SetRootSeed(0xC0FFEE);
  for (const char* site : kServeSites) {
    registry().ArmProbability(site, 0.25);
  }
  for (const char* site : kLadderSites) {
    registry().ArmProbability(site, 0.25);
  }
  registry().ArmProbability("util.thread_pool.submit", 0.25);

  constexpr int kClients = 4;
  constexpr int kIterations = 200;
  const int n = stack.service->snapshot()->num_templates();
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + static_cast<uint64_t>(c));
      for (int i = 0; i < kIterations; ++i) {
        const PredictRequest r = DrawRequest(&rng, n);
        const PredictResult result =
            stack.service->PredictDetailed(r.template_index, r.concurrent);
        ASSERT_TRUE(result.status.ok()) << result.status;
        ASSERT_GT(result.latency.value(), 0.0);
        answered.fetch_add(1, std::memory_order_relaxed);
        if (i % 40 == 0) {
          // Batches must answer from ONE snapshot even mid-hot-swap.
          std::vector<PredictRequest> batch;
          for (int b = 0; b < 24; ++b) batch.push_back(DrawRequest(&rng, n));
          const auto results = stack.service->PredictBatch(batch);
          ASSERT_EQ(results.size(), batch.size());
          for (const PredictResult& br : results) {
            ASSERT_TRUE(br.status.ok());
            ASSERT_EQ(br.snapshot_version, results.front().snapshot_version)
                << "torn snapshot inside a batch";
          }
          answered.fetch_add(results.size(), std::memory_order_relaxed);
        }
      }
    });
  }
  // Main thread churns ingest + refit under the same chaos.
  const auto& observations = SharedTrainingData().observations;
  for (int round = 0; round < 10; ++round) {
    for (size_t i = 0; i < 10; ++i) {
      (void)stack.log->Ingest(
          observations[(static_cast<size_t>(round) * 10 + i) %
                       observations.size()]);
    }
    (void)stack.controller->Step();  // may fail or quarantine: that's chaos
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(stack.service->served(), answered.load());
  // Every answer was stamped with some tier; counts reconcile exactly.
  const uint64_t tiers =
      stack.service->tier_count(DegradationTier::kFullModel) +
      stack.service->tier_count(DegradationTier::kTransferredQs) +
      stack.service->tier_count(DegradationTier::kIsolatedHeuristic);
  EXPECT_EQ(tiers, answered.load());
  // Chaos actually reached every armed site.
  for (const char* site : kServeSites) {
    EXPECT_GT(registry().Site(site).hits(), 0u) << site;
  }
  for (const char* site : kLadderSites) {
    EXPECT_GT(registry().Site(site).hits(), 0u) << site;
  }
  EXPECT_GT(registry().Site("util.thread_pool.submit").hits(), 0u);

  // Sanity after the storm: disarmed serving is healthy tier-0 again.
  registry().DisarmAll();
  const auto snapshot = stack.service->snapshot();
  const PredictResult calm = stack.service->PredictDetailed(0, {1, 2});
  EXPECT_TRUE(calm.status.ok());
  EXPECT_EQ(calm.tier, DegradationTier::kFullModel);
  EXPECT_EQ(calm.latency, snapshot->PredictInMix(0, {1, 2}));
}

TEST_F(ChaosTest, NthHitModeFiresExactlyOnceAtEveryServingSite) {
  {
    // Tier-0 site: the 2nd evaluation fails, all others answer tier 0.
    ChaosStack stack;
    registry().DisarmAll();
    registry().ArmNthHit("core.ladder.full_model", 2);
    std::vector<DegradationTier> tiers;
    for (int i = 0; i < 4; ++i) {
      tiers.push_back(stack.service->PredictDetailed(3, {1, 2}).tier);
    }
    EXPECT_EQ(registry().Site("core.ladder.full_model").fires(), 1u);
    EXPECT_EQ(tiers[0], DegradationTier::kFullModel);
    EXPECT_NE(tiers[1], DegradationTier::kFullModel);
    EXPECT_EQ(tiers[2], DegradationTier::kFullModel);
    EXPECT_EQ(tiers[3], DegradationTier::kFullModel);
  }
  {
    // Tier-1 site: only reachable after tier 0 fails, so hold tier 0 down
    // (probability 1.0) and inject the 2nd descent — it falls through to
    // the isolated heuristic; every other descent lands on transferred QS.
    ChaosStack stack;
    registry().DisarmAll();
    registry().ArmProbability("core.ladder.full_model", 1.0);
    registry().ArmNthHit("core.ladder.transfer", 2);
    std::vector<DegradationTier> tiers;
    for (int i = 0; i < 4; ++i) {
      tiers.push_back(stack.service->PredictDetailed(3, {1, 2}).tier);
    }
    EXPECT_EQ(registry().Site("core.ladder.transfer").fires(), 1u);
    EXPECT_EQ(tiers[0], DegradationTier::kTransferredQs);
    EXPECT_EQ(tiers[1], DegradationTier::kIsolatedHeuristic);
    EXPECT_EQ(tiers[2], DegradationTier::kTransferredQs);
    EXPECT_EQ(tiers[3], DegradationTier::kTransferredQs);
  }
  {
    // Oracle probe: the full-model site fires on the 2nd of three
    // identical probes, which answers from tier 1 (a fallback); the later
    // probe answers with the model again.
    registry().DisarmAll();
    sched::MixOracle oracle(&SharedPredictor());
    registry().ArmNthHit("core.ladder.full_model", 2);
    const units::Seconds model = oracle.PredictInMix(0, {1, 2});
    EXPECT_EQ(oracle.PredictInMix(0, {1, 2}),
              SharedPredictor()
                  .PredictInMix(0, {1, 2}, /*allow_full_model=*/false)
                  .latency);
    EXPECT_EQ(oracle.PredictInMix(0, {1, 2}), model);
    EXPECT_EQ(registry().Site("core.ladder.full_model").fires(), 1u);
    EXPECT_EQ(oracle.fallbacks(), 1u);
    EXPECT_EQ(oracle.degradations(), 0u);
  }
  {
    // Ingest: exactly the 2nd record is rejected.
    registry().DisarmAll();
    ChaosStack stack;
    registry().ArmNthHit("serve.observation_log.ingest", 2);
    const auto& obs = SharedTrainingData().observations;
    EXPECT_TRUE(stack.log->Ingest(obs[0]).ok());
    EXPECT_EQ(stack.log->Ingest(obs[1]).status().code(),
              StatusCode::kInternal);
    EXPECT_TRUE(stack.log->Ingest(obs[2]).ok());
    EXPECT_EQ(registry().Site("serve.observation_log.ingest").fires(), 1u);
  }
  {
    // Refit fit: the 2nd of three steps is injected. It fails with
    // kInternal and quarantines its batch; the steps around it publish.
    registry().DisarmAll();
    ChaosStack stack;
    registry().ArmNthHit("serve.refit.fit", 2);
    const auto& obs = SharedTrainingData().observations;
    size_t next = 0;
    for (int stepi = 0; stepi < 3; ++stepi) {
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(stack.log->Ingest(obs[next++ % obs.size()]).ok());
      }
      auto step = stack.controller->Step();
      if (stepi == 1) {
        EXPECT_EQ(step.status().code(), StatusCode::kInternal);
        EXPECT_EQ(stack.log->dead_letter_pending(), 8u);
      } else {
        ASSERT_TRUE(step.ok()) << step.status();
        EXPECT_TRUE(step->refit);
      }
    }
    EXPECT_EQ(registry().Site("serve.refit.fit").fires(), 1u);
    EXPECT_EQ(stack.controller->refits(), 2u);
    EXPECT_EQ(stack.controller->failed_steps(), 1u);
    EXPECT_EQ(stack.log->quarantined(), 8u);
    EXPECT_EQ(stack.service->snapshot()->version(), 3u);
  }
}

// The acceptance criterion: one root seed reproduces the entire degraded
// answer sequence — latencies AND tiers — bit-exactly. Single-threaded
// driver: with probability mode each site's k-th evaluation is a pure hash
// of (site seed, k), so determinism needs a deterministic evaluation
// order, which one thread provides.
TEST_F(ChaosTest, RootSeedReproducesDegradedAnswerSequenceBitExactly) {
  auto run = [this](uint64_t seed) {
    registry().DisarmAll();
    registry().SetRootSeed(seed);
    registry().ArmProbability("core.ladder.full_model", 0.3);
    registry().ArmProbability("core.ladder.transfer", 0.3);
    PredictionService service(MakeSnapshot());
    Rng rng(77);
    const int n = service.snapshot()->num_templates();
    std::vector<std::pair<double, int>> sequence;
    sequence.reserve(200);
    for (int i = 0; i < 200; ++i) {
      const PredictRequest r = DrawRequest(&rng, n);
      const PredictResult result =
          service.PredictDetailed(r.template_index, r.concurrent);
      CONTENDER_CHECK(result.status.ok());
      sequence.emplace_back(result.latency.value(),
                            static_cast<int>(result.tier));
    }
    return sequence;
  };
  const auto first = run(0xDEADBEEF);
  const auto second = run(0xDEADBEEF);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].first, second[i].first) << i;
    EXPECT_EQ(first[i].second, second[i].second) << i;
  }
  // Some answers actually degraded (the run exercised the ladder)...
  int degraded = 0;
  for (const auto& [latency, tier] : first) degraded += tier != 0 ? 1 : 0;
  EXPECT_GT(degraded, 0);
  // ...and a different seed fires a different subset.
  EXPECT_NE(first, run(0xBADD5EED));
}

TEST_F(ChaosTest, StampedTiersSurviveDisarmedRecomputationAudit) {
  registry().SetRootSeed(20260806);
  registry().ArmProbability("core.ladder.full_model", 0.35);
  registry().ArmProbability("core.ladder.transfer", 0.35);
  PredictionService service(MakeSnapshot());
  const auto snapshot = service.snapshot();
  Rng rng(99);
  const int n = snapshot->num_templates();
  std::vector<std::pair<PredictRequest, PredictResult>> answered;
  for (int i = 0; i < 150; ++i) {
    PredictRequest r = DrawRequest(&rng, n);
    const PredictResult result =
        service.PredictDetailed(r.template_index, r.concurrent);
    ASSERT_TRUE(result.status.ok());
    answered.emplace_back(std::move(r), result);
  }
  registry().DisarmAll();
  int by_tier[3] = {0, 0, 0};
  for (const auto& [request, result] : answered) {
    ++by_tier[static_cast<int>(result.tier)];
    EXPECT_EQ(result.latency,
              RecomputeForTier(*snapshot, request, result.tier))
        << DegradationTierName(result.tier);
  }
  // The 0.35/0.35 arming exercised all three rungs.
  EXPECT_GT(by_tier[0], 0);
  EXPECT_GT(by_tier[1], 0);
  EXPECT_GT(by_tier[2], 0);
}

// With every fail point disarmed, the tiered path answers bit-identically
// to the plain PredictInMix path (the pre-ladder serving behavior) on the
// trained workload.
TEST_F(ChaosTest, DisarmedServingMatchesPlainPredictInMixBitExactly) {
  PredictionService service(MakeSnapshot());
  const auto snapshot = service.snapshot();
  Rng rng(123);
  const int n = snapshot->num_templates();
  for (int i = 0; i < 300; ++i) {
    const PredictRequest r = DrawRequest(&rng, n);
    const PredictResult result =
        service.PredictDetailed(r.template_index, r.concurrent);
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.latency,
              snapshot->PredictInMix(r.template_index, r.concurrent));
    EXPECT_EQ(result.tier, DegradationTier::kFullModel);
  }
}

TEST_F(ChaosTest, OpenBreakerGivesServingAndSchedulingOneLadderAnswer) {
  ChaosStack stack;
  const std::shared_ptr<HealthTracker>& health = stack.service->health();
  ASSERT_NE(health, nullptr);
  const int victim = 2;

  // Grossly mispredicted observations for the victim trip its breaker.
  MixObservation bad;
  for (const MixObservation& o : SharedTrainingData().observations) {
    if (o.primary_index == victim) {
      bad = o;
      break;
    }
  }
  ASSERT_EQ(bad.primary_index, victim);
  bad.latency = bad.latency * 50.0;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(stack.log->Ingest(bad).ok());
  ASSERT_EQ(health->state(victim), BreakerState::kOpen);

  // Serving: the victim starts at tier 1; other templates stay tier 0.
  const PredictResult degraded =
      stack.service->PredictDetailed(victim, {1, 3});
  EXPECT_EQ(degraded.tier, DegradationTier::kTransferredQs);
  EXPECT_EQ(stack.service->tier_count(DegradationTier::kTransferredQs), 1u);
  const PredictResult healthy = stack.service->PredictDetailed(5, {1, 3});
  EXPECT_EQ(healthy.tier, DegradationTier::kFullModel);

  // Scheduling: the same tracker starts the oracle's ladder at tier 1 for
  // the victim, so the scheduler predicts exactly what serving answers.
  sched::MixOracle::Options oracle_options;
  oracle_options.health = health.get();
  sched::MixOracle oracle(&SharedPredictor(), oracle_options);
  EXPECT_TRUE(oracle.Degraded(victim));
  EXPECT_EQ(oracle.PredictInMix(victim, {1, 3}), degraded.latency);
  EXPECT_EQ(oracle.PredictInMix(5, {1, 3}), healthy.latency);
  EXPECT_EQ(oracle.degradations(), 1u);

  // Greedy admission scores both candidates on those answers: the lower
  // predicted slowdown in the running mix wins.
  sched::RequestQueue queue = [&] {
    sched::Request a;
    a.request_id = 0;
    a.template_index = victim;
    a.arrival_time = units::Seconds(0.0);
    sched::Request b;
    b.request_id = 1;
    b.template_index = 7;
    b.arrival_time = units::Seconds(1.0);
    return sched::RequestQueue({a, b});
  }();
  const std::vector<int> running = {victim};
  const auto served_slowdown = [&](int t) {
    return stack.service->PredictDetailed(t, running).latency.value() /
           oracle.IsolatedLatency(t).value();
  };
  const size_t expected =
      served_slowdown(7) < served_slowdown(victim) ? 1 : 0;
  sched::SchedContext ctx;
  ctx.now = units::Seconds(10.0);
  ctx.running_templates = &running;
  ctx.oracle = &oracle;
  auto greedy = sched::MakePolicy(sched::PolicyKind::kGreedyContention);
  auto greedy_pick = greedy->Pick(queue, ctx);
  ASSERT_TRUE(greedy_pick.ok());
  EXPECT_EQ(*greedy_pick, expected);
}

TEST_F(ChaosTest, ThreadPoolSubmitChaosDegradesToInlineExecution) {
  PredictionService service(MakeSnapshot());
  Rng rng(55);
  const int n = service.snapshot()->num_templates();
  std::vector<PredictRequest> batch;
  for (int i = 0; i < 120; ++i) batch.push_back(DrawRequest(&rng, n));

  const auto baseline = service.PredictBatch(batch);
  registry().ArmProbability("util.thread_pool.submit", 1.0);
  const auto inline_results = service.PredictBatch(batch);
  registry().DisarmAll();

  ASSERT_EQ(baseline.size(), inline_results.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].status.code(), inline_results[i].status.code());
    EXPECT_EQ(baseline[i].latency, inline_results[i].latency) << i;
    EXPECT_EQ(baseline[i].tier, inline_results[i].tier) << i;
  }

  // Direct check: a fired submit runs the task on the caller's thread.
  ThreadPool pool(4);
  registry().ArmProbability("util.thread_pool.submit", 1.0);
  const std::thread::id caller = std::this_thread::get_id();
  auto ran_on = pool.Submit([] { return std::this_thread::get_id(); });
  EXPECT_EQ(ran_on.get(), caller);
}

}  // namespace
}  // namespace contender::serve
