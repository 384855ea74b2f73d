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

TEST(ShedReasonTest, EveryReasonRoundTrips) {
  std::set<std::string> seen;
  for (ShedReason reason : AllShedReasons()) {
    const std::string name = ShedReasonName(reason);
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    auto parsed = ShedReasonFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, reason) << name;
  }
  EXPECT_EQ(AllShedReasons().size(), 4u);
  EXPECT_FALSE(ShedReasonFromString("").has_value());
  EXPECT_FALSE(ShedReasonFromString("oom").has_value());
  EXPECT_FALSE(ShedReasonFromString("Queue-Delay").has_value());
}

TEST(ShedReasonTest, CriticalityRoundTripsAndOrders) {
  for (Criticality tier : AllCriticalities()) {
    auto parsed = CriticalityFromString(CriticalityName(tier));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, tier);
  }
  EXPECT_EQ(AllCriticalities().size(), 3u);
  // The tiers are ordered: the brownout floor comparison relies on it.
  EXPECT_LT(Criticality::kSheddable, Criticality::kStandard);
  EXPECT_LT(Criticality::kStandard, Criticality::kCritical);
  EXPECT_FALSE(CriticalityFromString("vip").has_value());
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
