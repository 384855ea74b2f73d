// Hand-worked examples of the CQI equations (paper §4.1, Eqs. 2–5).

#include "core/cqi.h"

#include <gtest/gtest.h>

namespace contender {
namespace {

// A small synthetic workload: three templates over two fact tables.
//   T0: scans fact A, l_min = 100, p = 0.9
//   T1: scans fact A and B, l_min = 200, p = 0.8
//   T2: scans fact B, l_min = 50, p = 1.0
// Scan times: s_A = 30, s_B = 20.
std::vector<TemplateProfile> TestProfiles() {
  TemplateProfile t0;
  t0.template_index = 0;
  t0.isolated_latency = units::Seconds(100.0);
  t0.io_fraction = units::Fraction::Clamp(0.9);
  t0.fact_tables = {0};
  TemplateProfile t1;
  t1.template_index = 1;
  t1.isolated_latency = units::Seconds(200.0);
  t1.io_fraction = units::Fraction::Clamp(0.8);
  t1.fact_tables = {0, 1};
  TemplateProfile t2;
  t2.template_index = 2;
  t2.isolated_latency = units::Seconds(50.0);
  t2.io_fraction = units::Fraction::Clamp(1.0);
  t2.fact_tables = {1};
  return {t0, t1, t2};
}

ScanTimes TestScanTimes() {
  return {{0, units::Seconds(30.0)}, {1, units::Seconds(20.0)}};
}

TEST(CqiTest, BaselineIoIsAverageIoFraction) {
  auto cqi = ComputeCqi(TestProfiles(), TestScanTimes(), 0, {1, 2},
                        CqiVariant::kBaselineIo);
  ASSERT_TRUE(cqi.ok());
  EXPECT_NEAR(cqi->value(), (0.8 + 1.0) / 2.0, 1e-12);
}

TEST(CqiTest, PositiveIoSubtractsSharedScansWithPrimary) {
  // Primary T0 scans A. Concurrent T1 shares A: omega = s_A = 30.
  //   r_1 = (200*0.8 - 30)/200 = 0.65.
  // Concurrent T2 shares nothing with T0: r_2 = 1.0.
  auto cqi = ComputeCqi(TestProfiles(), TestScanTimes(), 0, {1, 2},
                        CqiVariant::kPositiveIo);
  ASSERT_TRUE(cqi.ok());
  EXPECT_NEAR(cqi->value(), (0.65 + 1.0) / 2.0, 1e-12);
}

TEST(CqiTest, FullCqiCreditsSharingAmongConcurrents) {
  // Primary T0. Concurrents T1 and T2 both scan B (which the primary does
  // not): h_B = 2, so each gets tau = (1 - 1/2) * s_B = 10.
  //   r_1 = (160 - 30 - 10)/200 = 0.6
  //   r_2 = (50 - 0 - 10)/50 = 0.8
  auto cqi = ComputeCqi(TestProfiles(), TestScanTimes(), 0, {1, 2},
                        CqiVariant::kFull);
  ASSERT_TRUE(cqi.ok());
  EXPECT_NEAR(cqi->value(), (0.6 + 0.8) / 2.0, 1e-12);
}

TEST(CqiTest, TermsExposeOmegaAndTau) {
  auto terms = ComputeCqiTerms(TestProfiles(), TestScanTimes(), 0, {1, 2}, 0,
                               CqiVariant::kFull);
  ASSERT_TRUE(terms.ok());
  EXPECT_NEAR(terms->total_io_seconds.value(), 160.0, 1e-12);
  EXPECT_NEAR(terms->omega.value(), 30.0, 1e-12);
  EXPECT_NEAR(terms->tau.value(), 10.0, 1e-12);
  EXPECT_NEAR(terms->r, 0.6, 1e-12);
}

TEST(CqiTest, NoDoubleCountingWhenPrimarySharesTheTable) {
  // Primary T1 scans A and B. Concurrents T0 (A) and T2 (B) both share
  // with the primary; tau must be zero (tables shared with the primary are
  // excluded from Eq. 3).
  auto t0 = ComputeCqiTerms(TestProfiles(), TestScanTimes(), 1, {0, 2}, 0,
                            CqiVariant::kFull);
  ASSERT_TRUE(t0.ok());
  EXPECT_NEAR(t0->omega.value(), 30.0, 1e-12);
  EXPECT_DOUBLE_EQ(t0->tau.value(), 0.0);
}

TEST(CqiTest, NegativeEstimatesTruncateToZero) {
  // A concurrent query whose shared scans exceed its I/O time: r = 0.
  auto profiles = TestProfiles();
  profiles[1].io_fraction = units::Fraction::Clamp(0.1);  // total I/O = 20 < omega 30
  auto terms = ComputeCqiTerms(profiles, TestScanTimes(), 0, {1}, 0,
                               CqiVariant::kFull);
  ASSERT_TRUE(terms.ok());
  EXPECT_DOUBLE_EQ(terms->r, 0.0);
}

TEST(CqiTest, SelfMixSharingSameTemplate) {
  // Two copies of T0 run with primary T0: each shares scan A with the
  // primary (omega = 30); tau = 0 because A is a primary table.
  auto cqi = ComputeCqi(TestProfiles(), TestScanTimes(), 0, {0, 0},
                        CqiVariant::kFull);
  ASSERT_TRUE(cqi.ok());
  EXPECT_NEAR(cqi->value(), (100.0 * 0.9 - 30.0) / 100.0, 1e-12);
}

TEST(CqiTest, VariantOrderingIsMonotone) {
  // Full CQI credits at least as much positive interaction as Positive I/O,
  // which credits at least as much as Baseline.
  auto base = ComputeCqi(TestProfiles(), TestScanTimes(), 0, {1, 2},
                         CqiVariant::kBaselineIo);
  auto pos = ComputeCqi(TestProfiles(), TestScanTimes(), 0, {1, 2},
                        CqiVariant::kPositiveIo);
  auto full = ComputeCqi(TestProfiles(), TestScanTimes(), 0, {1, 2},
                         CqiVariant::kFull);
  EXPECT_LE(full->value(), pos->value());
  EXPECT_LE(pos->value(), base->value());
}

TEST(CqiTest, MissingScanTimeCountsAsZeroSharing) {
  auto cqi = ComputeCqi(TestProfiles(), {}, 0, {1}, CqiVariant::kFull);
  ASSERT_TRUE(cqi.ok());
  EXPECT_NEAR(cqi->value(), 0.8, 1e-12);  // no credit without s_f
}

TEST(CqiTest, InvalidArguments) {
  auto profiles = TestProfiles();
  auto scans = TestScanTimes();
  EXPECT_FALSE(ComputeCqi(profiles, scans, -1, {0}, CqiVariant::kFull).ok());
  EXPECT_FALSE(ComputeCqi(profiles, scans, 9, {0}, CqiVariant::kFull).ok());
  EXPECT_FALSE(ComputeCqi(profiles, scans, 0, {}, CqiVariant::kFull).ok());
  EXPECT_FALSE(ComputeCqi(profiles, scans, 0, {7}, CqiVariant::kFull).ok());
}

TEST(CqiTest, ProfileOverloadMatchesIndexVersion) {
  const auto profiles = TestProfiles();
  const auto scans = TestScanTimes();
  // The primary need not belong to `profiles`: a copy outside the vector
  // (a new template's profile) answers exactly as the indexed one does.
  const TemplateProfile outside = profiles[0];
  const std::vector<int> mix = {1, 2};
  for (CqiVariant variant : {CqiVariant::kBaselineIo, CqiVariant::kPositiveIo,
                             CqiVariant::kFull}) {
    auto a = ComputeCqiFor(outside, profiles, mix, scans, variant);
    auto b = ComputeCqi(profiles, scans, 0, {1, 2}, variant);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->value(), b->value());
  }
  EXPECT_FALSE(ComputeCqiFor(outside, profiles, std::vector<int>{}, scans,
                             CqiVariant::kFull)
                   .ok());
  EXPECT_FALSE(ComputeCqiFor(outside, profiles, std::vector<int>{3}, scans,
                             CqiVariant::kFull)
                   .ok());
}

}  // namespace
}  // namespace contender
