// The shed-reason taxonomy: stable names, round-trip parsing, and the
// deterministic tenant→criticality ladder — the vocabulary every ledger
// and bench column in the overload subsystem depends on.

#include "overload/shed_reason.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace contender::overload {
namespace {

TEST(ShedReasonTest, NamesAreStable) {
  EXPECT_STREQ(ShedReasonName(ShedReason::kQueueDelay), "queue-delay");
  EXPECT_STREQ(ShedReasonName(ShedReason::kQuota), "quota");
  EXPECT_STREQ(ShedReasonName(ShedReason::kMemoryPressure),
               "memory-pressure");
  EXPECT_STREQ(ShedReasonName(ShedReason::kCriticalityBrownout),
               "criticality-brownout");
}

TEST(ShedReasonTest, EveryReasonHasADistinctName) {
  std::set<std::string> seen;
  for (ShedReason reason : AllShedReasons()) {
    const std::string name = ShedReasonName(reason);
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(AllShedReasons().size(), 4u);
}

TEST(ShedReasonTest, CriticalitiesAreNamedAndOrdered) {
  std::set<std::string> seen;
  for (Criticality tier : AllCriticalities()) {
    const std::string name = CriticalityName(tier);
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(AllCriticalities().size(), 3u);
  // The tiers are ordered: the brownout floor comparison relies on it.
  EXPECT_LT(Criticality::kSheddable, Criticality::kStandard);
  EXPECT_LT(Criticality::kStandard, Criticality::kCritical);
}

TEST(ShedReasonTest, TenantLadderIsDeterministicAndMixesAllTiers) {
  // Pure function of tenant id — the fleet population stamps this, and
  // scenario digests depend on it never varying run to run.
  std::set<Criticality> seen;
  for (int tenant = 0; tenant < 9; ++tenant) {
    EXPECT_EQ(CriticalityForTenant(tenant), CriticalityForTenant(tenant));
    seen.insert(CriticalityForTenant(tenant));
  }
  EXPECT_EQ(seen.size(), 3u) << "ladder must mix all three tiers";
  // Tenant 0 — the heaviest Zipf share — is protected.
  EXPECT_EQ(CriticalityForTenant(0), Criticality::kCritical);
  // Unknown / unset tenants default to the standard tier.
  EXPECT_EQ(CriticalityForTenant(-1), Criticality::kStandard);
}

}  // namespace
}  // namespace contender::overload
