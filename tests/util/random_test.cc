#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace contender {
namespace {

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanApproximatelyCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform(2.0, 4.0);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(uint64_t{10})];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(17);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-2}, int64_t{2});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, NormalScaled) {
  Rng rng(23);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, LogNormalUnitMeanWhenCompensated) {
  // exp(N(-sigma^2/2, sigma)) has mean 1.
  Rng rng(29);
  const double sigma = 0.3;
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += rng.LogNormal(-0.5 * sigma * sigma, sigma);
  }
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(31);
  for (int n : {1, 2, 5, 25, 100}) {
    std::vector<int> p = rng.Permutation(n);
    ASSERT_EQ(p.size(), static_cast<size_t>(n));
    std::vector<int> sorted = p;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < n; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace contender
