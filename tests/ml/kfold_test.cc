#include "ml/kfold.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace contender {
namespace {

class KFoldProperty
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(KFoldProperty, PartitionInvariants) {
  const size_t n = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  Rng rng(99);
  auto splits = KFoldSplits(n, k, &rng);
  const size_t folds = std::min<size_t>(static_cast<size_t>(k), n);
  ASSERT_EQ(splits.size(), folds);

  std::set<size_t> all_test;
  for (const FoldSplit& s : splits) {
    // Train and test are disjoint and cover everything.
    EXPECT_EQ(s.train.size() + s.test.size(), n);
    std::set<size_t> train(s.train.begin(), s.train.end());
    for (size_t t : s.test) {
      EXPECT_EQ(train.count(t), 0u);
      all_test.insert(t);
    }
    // Near-equal fold sizes.
    EXPECT_GE(s.test.size(), n / folds);
    EXPECT_LE(s.test.size(), n / folds + 1);
  }
  // Every example is tested exactly once across folds.
  EXPECT_EQ(all_test.size(), n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KFoldProperty,
    ::testing::Combine(::testing::Values<size_t>(1, 5, 10, 25, 100),
                       ::testing::Values(2, 5, 6)));

TEST(KFoldTest, EmptyInput) {
  Rng rng(1);
  EXPECT_TRUE(KFoldSplits(0, 5, &rng).empty());
}

TEST(KFoldTest, KClampedToN) {
  Rng rng(2);
  auto splits = KFoldSplits(3, 10, &rng);
  EXPECT_EQ(splits.size(), 3u);
}

TEST(KFoldTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  auto sa = KFoldSplits(20, 5, &a);
  auto sb = KFoldSplits(20, 5, &b);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].test, sb[i].test);
  }
}

}  // namespace
}  // namespace contender
