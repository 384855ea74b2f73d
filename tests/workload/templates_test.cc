// Asserts the workload exhibits every characteristic the paper documents
// for its 25 templates (§2, §5.5, §6.1–6.2).

#include "workload/templates.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "test_support.h"
#include "util/random.h"
#include "util/summary_stats.h"

namespace contender {
namespace {

using testing::DefaultConfig;
using testing::PaperWorkload;
using testing::ProfileById;
using testing::SharedTrainingData;

TEST(TemplatesTest, PaperTemplateIds) {
  const std::vector<int> expected = {2,  8,  15, 17, 18, 20, 22, 25, 26,
                                     27, 32, 33, 40, 46, 56, 60, 61, 62,
                                     65, 66, 70, 71, 79, 82, 90};
  auto templates = MakePaperTemplates();
  ASSERT_EQ(templates.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(templates[i].id, expected[i]);
    EXPECT_FALSE(templates[i].name.empty());
    EXPECT_FALSE(templates[i].description.empty());
  }
}

TEST(TemplatesTest, AllPlansBuildAndAreNonTrivial) {
  const Workload& w = PaperWorkload();
  for (int i = 0; i < w.size(); ++i) {
    PlanNode plan = w.NominalPlan(i);
    EXPECT_GE(CountPlanSteps(plan), 3) << w.tmpl(i).name;
    EXPECT_GT(SumPlanRows(plan), 0.0) << w.tmpl(i).name;
  }
}

TEST(TemplatesTest, EveryTemplateScansAFactTableOrIndexesOne) {
  const Workload& w = PaperWorkload();
  for (int i = 0; i < w.size(); ++i) {
    sim::QuerySpec spec = w.InstantiateNominal(i);
    double io = 0.0;
    for (const auto& phase : spec.phases) {
      io += phase.seq_io_bytes + phase.rnd_io_bytes;
    }
    EXPECT_GT(io, 1e9) << w.tmpl(i).name;  // analytical: > 1 GB of I/O
  }
}

TEST(TemplatesTest, IsolatedLatenciesSpanModerateRange) {
  const TrainingData& data = SharedTrainingData();
  double lo = 1e18, hi = 0.0;
  for (const TemplateProfile& p : data.profiles) {
    lo = std::min(lo, p.isolated_latency.value());
    hi = std::max(hi, p.isolated_latency.value());
  }
  // Paper §2: roughly 130–1000 s of isolated latency; the simulated
  // workload spans ~2–10 minutes.
  EXPECT_GT(lo, 100.0);
  EXPECT_LT(hi, 1000.0);
  EXPECT_GT(hi / lo, 3.0);  // meaningful spread
}

TEST(TemplatesTest, IoBoundTemplatesMatchPaper) {
  // §6.2: templates 26, 33, 61, 71 spend >= 97% of isolated time on I/O.
  const TrainingData& data = SharedTrainingData();
  for (int id : {26, 33, 61, 71}) {
    EXPECT_GE(ProfileById(data, id).io_fraction.value(), 0.97) << "q" << id;
  }
}

TEST(TemplatesTest, CpuLimitedTemplatesMatchPaper) {
  // §6.1: templates 62 and 65 are CPU-limited relative to the workload.
  const TrainingData& data = SharedTrainingData();
  const double q62 = ProfileById(data, 62).io_fraction.value();
  const double q65 = ProfileById(data, 65).io_fraction.value();
  EXPECT_LT(q62, 0.95);
  EXPECT_LT(q65, 0.90);
  // q62 has one fact scan and small intermediates (§5.5, "lightweight").
  EXPECT_LT(ProfileById(data, 62).working_set_bytes.value(), 200e6);
}

TEST(TemplatesTest, MemoryBoundTemplatesHaveMultiGbWorkingSets) {
  // §6.1: templates 2 and 22 are memory-intensive with working sets of
  // several GB.
  const TrainingData& data = SharedTrainingData();
  EXPECT_GT(ProfileById(data, 2).working_set_bytes.value(), 2e9);
  EXPECT_GT(ProfileById(data, 22).working_set_bytes.value(), 3e9);
  // And they are the two largest in the workload.
  for (const TemplateProfile& p : data.profiles) {
    if (p.template_id != 2 && p.template_id != 22) {
      EXPECT_LT(p.working_set_bytes,
                ProfileById(data, 22).working_set_bytes);
    }
  }
}

TEST(TemplatesTest, Templates22And82ShareInventoryScan) {
  // §3: "templates 82 and 22 share a scan on the inventory fact table,
  // unlike all of the remaining templates."
  const Workload& w = PaperWorkload();
  const sim::TableId inventory = w.catalog().Get("inventory").id;
  for (int i = 0; i < w.size(); ++i) {
    auto facts = FactTablesScanned(w.NominalPlan(i), w.catalog());
    const bool scans_inventory =
        std::find(facts.begin(), facts.end(), inventory) != facts.end();
    const int id = w.tmpl(i).id;
    EXPECT_EQ(scans_inventory, id == 22 || id == 82) << "q" << id;
  }
}

TEST(TemplatesTest, RandomIoTemplatesIssueScatteredReads) {
  // §6.1: templates 17, 25, 32 execute random I/O (index scans).
  const Workload& w = PaperWorkload();
  for (int id : {17, 25, 32}) {
    sim::QuerySpec spec = w.InstantiateNominal(w.IndexOfId(id));
    double rnd = 0.0;
    for (const auto& phase : spec.phases) rnd += phase.rnd_io_bytes;
    EXPECT_GT(rnd, 100e6) << "q" << id;
  }
}

TEST(TemplatesTest, InstanceJitterProducesModestLatencyVariance) {
  // §4: isolated latency std-dev is ~6% on average — "a manageable level".
  const Workload& w = PaperWorkload();
  Rng rng(7);
  const int idx = w.IndexOfId(62);
  std::vector<double> latencies;
  for (int rep = 0; rep < 12; ++rep) {
    sim::Engine engine(DefaultConfig(), rng.Next());
    const int pid = engine.AddProcess(w.Instantiate(idx, &rng), units::Seconds(0.0));
    ASSERT_TRUE(engine.Run().ok());
    latencies.push_back(engine.result(pid).latency().value());
  }
  const double cv = StdDev(latencies) / Mean(latencies);
  EXPECT_GT(cv, 0.005);
  EXPECT_LT(cv, 0.12);
}

TEST(TemplatesTest, TemplatesTouchOneToThreeFactTables) {
  // §6.1: "individual templates access between one and three fact tables."
  const Workload& w = PaperWorkload();
  for (int i = 0; i < w.size(); ++i) {
    auto facts = FactTablesScanned(w.NominalPlan(i), w.catalog());
    sim::QuerySpec spec = w.InstantiateNominal(i);
    double rnd = 0.0;
    for (const auto& phase : spec.phases) rnd += phase.rnd_io_bytes;
    // Index-only templates may have fewer sequential fact scans.
    if (rnd < 50e6) {
      EXPECT_GE(facts.size(), 1u) << w.tmpl(i).name;
    }
    EXPECT_LE(facts.size(), 3u) << w.tmpl(i).name;
  }
}

// Every index-taking Workload method CHECK-fails on an index outside
// [0, size()) instead of reading past its template and plan arrays.
TEST(WorkloadDeathTest, UnknownTemplateIndexChecks) {
  const Workload& w = PaperWorkload();
  for (const int index : {-1, w.size()}) {
    const std::string message =
        "unknown template index " + std::to_string(index);
    Rng rng(1);
    EXPECT_DEATH((void)w.Instantiate(index, &rng), message);
    EXPECT_DEATH((void)w.InstantiateNominal(index), message);
    EXPECT_DEATH((void)w.NominalPlan(index), message);
    EXPECT_DEATH((void)w.tmpl(index), message);
  }
}

}  // namespace
}  // namespace contender
