#include "util/logging.h"

#include <gtest/gtest.h>

namespace contender {
namespace {

// Dies where DCHECKs are live (no NDEBUG) and is a no-op under NDEBUG, so
// it passes in both the default RelWithDebInfo tree and the sanitizer
// trees that drop -DNDEBUG.
TEST(LoggingTest, DcheckDiesOnlyWhereDchecksAreLive) {
  EXPECT_DEBUG_DEATH(CONTENDER_DCHECK(false), "Check failed");
}

TEST(LoggingTest, DcheckEvaluatesItsConditionOnlyWhereLive) {
  int evaluations = 0;
  CONTENDER_DCHECK(++evaluations > 0);
#ifdef NDEBUG
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_EQ(evaluations, 1);
#endif
}

}  // namespace
}  // namespace contender
