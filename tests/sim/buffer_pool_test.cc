#include "sim/buffer_pool.h"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/reference_sim.h"
#include "util/random.h"

namespace contender::sim {
namespace {

TEST(BufferPoolTest, AdmitAndHit) {
  BufferPool pool(100.0);
  EXPECT_FALSE(pool.IsCached(1));
  pool.Admit(1, 40.0);
  EXPECT_TRUE(pool.IsCached(1));
  EXPECT_DOUBLE_EQ(pool.cached_bytes(), 40.0);
}

TEST(BufferPoolTest, OversizedTableIgnored) {
  BufferPool pool(100.0);
  pool.Admit(1, 150.0);
  EXPECT_FALSE(pool.IsCached(1));
  EXPECT_DOUBLE_EQ(pool.cached_bytes(), 0.0);
}

TEST(BufferPoolTest, LruEviction) {
  BufferPool pool(100.0);
  pool.Admit(1, 50.0);
  pool.Admit(2, 50.0);
  // Touch 1 so 2 becomes the LRU victim.
  pool.Touch(1);
  pool.Admit(3, 30.0);
  EXPECT_TRUE(pool.IsCached(1));
  EXPECT_FALSE(pool.IsCached(2));
  EXPECT_TRUE(pool.IsCached(3));
}

TEST(BufferPoolTest, DuplicateAdmitRefreshes) {
  BufferPool pool(100.0);
  pool.Admit(1, 60.0);
  pool.Admit(1, 60.0);
  EXPECT_DOUBLE_EQ(pool.cached_bytes(), 60.0);
  EXPECT_EQ(pool.num_cached_tables(), 1u);
}

TEST(BufferPoolTest, CapacityShrinkEvicts) {
  BufferPool pool(100.0);
  pool.Admit(1, 40.0);
  pool.Admit(2, 40.0);
  EXPECT_EQ(pool.num_cached_tables(), 2u);
  pool.SetCapacity(50.0);
  // LRU victim (table 1) evicted to fit.
  EXPECT_EQ(pool.num_cached_tables(), 1u);
  EXPECT_FALSE(pool.IsCached(1));
  EXPECT_TRUE(pool.IsCached(2));
  EXPECT_LE(pool.cached_bytes(), 50.0);
}

TEST(BufferPoolTest, CapacityShrinkToZeroEvictsAll) {
  BufferPool pool(100.0);
  pool.Admit(1, 10.0);
  pool.Admit(2, 10.0);
  pool.SetCapacity(0.0);
  EXPECT_EQ(pool.num_cached_tables(), 0u);
  EXPECT_DOUBLE_EQ(pool.cached_bytes(), 0.0);
}

TEST(BufferPoolTest, TouchUnknownTableIsNoop) {
  BufferPool pool(10.0);
  pool.Touch(99);
  EXPECT_EQ(pool.num_cached_tables(), 0u);
}

// The flat MRU-first vector must answer exactly as the list-plus-map pool
// it replaced, over long seeded sequences of every call with capacity
// shrinks: the same hits, the same table count, and the same cached_bytes
// bits (both subtract evicted tables in the same LRU order).
TEST(BufferPoolTest, MatchesTheReplacedListPoolOnRandomSequences) {
  constexpr int kTables = 24;
  int calls = 0, shrink_evictions = 0, hits = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    std::vector<double> table_bytes;
    for (int t = 0; t < kTables; ++t) {
      table_bytes.push_back(rng.Uniform(5.0, 400.0) * kMB);
    }
    const double full = rng.Uniform(500.0, 3000.0) * kMB;
    BufferPool got(full);
    reference::BufferPool want(full);
    for (int i = 0; i < 12000; ++i, ++calls) {
      const TableId table = static_cast<TableId>(
          rng.UniformInt(static_cast<uint64_t>(kTables)));
      const uint64_t op = rng.UniformInt(uint64_t{10});
      if (op < 4) {
        // Mostly the table's own size, as the engine admits; sometimes a
        // different size, so a duplicate admit keeps the first one.
        const double bytes = rng.Uniform01() < 0.9
                                 ? table_bytes[static_cast<size_t>(table)]
                                 : rng.Uniform(1.0, 600.0) * kMB;
        got.Admit(table, bytes);
        want.Admit(table, bytes);
      } else if (op < 7) {
        got.Touch(table);
        want.Touch(table);
      } else if (op < 9) {
        const bool cached = want.IsCached(table);
        ASSERT_EQ(got.IsCached(table), cached) << "seed " << seed;
        hits += cached;
      } else {
        const double capacity =
            rng.Uniform01() < 0.05 ? 0.0 : rng.Uniform(0.0, 1.2) * full;
        const size_t before = want.num_cached_tables();
        got.SetCapacity(capacity);
        want.SetCapacity(capacity);
        shrink_evictions += want.num_cached_tables() < before;
        ASSERT_EQ(got.capacity(), want.capacity());
      }
      ASSERT_EQ(got.num_cached_tables(), want.num_cached_tables())
          << "seed " << seed << " call " << i;
      ASSERT_EQ(std::bit_cast<uint64_t>(got.cached_bytes()),
                std::bit_cast<uint64_t>(want.cached_bytes()))
          << "seed " << seed << " call " << i;
    }
    for (TableId t = 0; t < kTables; ++t) {
      EXPECT_EQ(got.IsCached(t), want.IsCached(t)) << "table " << t;
    }
  }
  EXPECT_GE(calls, 10000);
  // The sequences must reach the behaviours the parity is about.
  EXPECT_GE(shrink_evictions, 500);
  EXPECT_GE(hits, 1000);
}

}  // namespace
}  // namespace contender::sim
