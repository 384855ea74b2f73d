#include "sim/run_cache.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace contender::sim {
namespace {

QuerySpec MakeSpec(double seq_bytes = 1e9, double cpu = 2.0) {
  QuerySpec spec;
  spec.name = "probe";
  spec.template_id = 7;
  Phase phase;
  phase.seq_io_bytes = seq_bytes;
  phase.table = 3;
  phase.table_bytes = seq_bytes;
  phase.cpu_seconds = cpu;
  spec.phases.push_back(phase);
  return spec;
}

RunCache::Entry MakeEntry(double latency) {
  RunCache::Entry entry;
  ProcessResult r;
  r.process_id = 0;
  r.end_time = latency;
  r.completed = true;
  entry.results.push_back(r);
  entry.duration = latency;
  return entry;
}

TEST(RunCacheTest, MissThenHit) {
  RunCache cache(8);
  const uint64_t key = HashEngineRun({MakeSpec()}, SimConfig{}, 42, -1);
  EXPECT_FALSE(cache.Lookup(key).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  cache.Insert(key, MakeEntry(12.5));
  auto entry = cache.Lookup(key);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->duration, 12.5);
  ASSERT_EQ(entry->results.size(), 1u);
  EXPECT_EQ(entry->results[0].latency().value(), 12.5);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RunCacheTest, HashIsStableForEqualInputs) {
  const std::vector<QuerySpec> specs = {MakeSpec(), MakeSpec(2e9, 1.0)};
  const SimConfig config;
  EXPECT_EQ(HashEngineRun(specs, config, 42, -1),
            HashEngineRun(specs, config, 42, -1));
  // A rebuilt but identical spec set hashes the same (content, not
  // identity).
  EXPECT_EQ(HashEngineRun({MakeSpec()}, config, 1, 0),
            HashEngineRun({MakeSpec()}, config, 1, 0));
}

TEST(RunCacheTest, HashDiscriminatesEveryInputDimension) {
  const std::vector<QuerySpec> specs = {MakeSpec()};
  const SimConfig config;
  const uint64_t base = HashEngineRun(specs, config, 42, -1);

  EXPECT_NE(base, HashEngineRun(specs, config, 43, -1));  // seed
  EXPECT_NE(base, HashEngineRun(specs, config, 42, 0));   // run mode

  SimConfig slower = config;
  slower.seq_bandwidth *= 0.5;
  EXPECT_NE(base, HashEngineRun(specs, slower, 42, -1));  // hardware

  QuerySpec bigger = MakeSpec();
  bigger.phases[0].seq_io_bytes += 1.0;
  EXPECT_NE(base, HashEngineRun({bigger}, config, 42, -1));  // spec content

  QuerySpec renamed = MakeSpec();
  renamed.name = "probe2";
  EXPECT_NE(base, HashEngineRun({renamed}, config, 42, -1));  // identity

  // One spec vs the same spec twice.
  EXPECT_NE(base, HashEngineRun({MakeSpec(), MakeSpec()}, config, 42, -1));
}

TEST(RunCacheTest, SignedZeroHashesLikePositiveZero) {
  RunHasher a, b;
  a.Add(0.0);
  b.Add(-0.0);
  EXPECT_EQ(a.Digest(), b.Digest());
}

TEST(RunCacheTest, EvictsLeastRecentlyUsed) {
  RunCache cache(2);
  cache.Insert(1, MakeEntry(1.0));
  cache.Insert(2, MakeEntry(2.0));
  // Touch key 1 so key 2 becomes the LRU victim.
  EXPECT_TRUE(cache.Lookup(1).has_value());
  cache.Insert(3, MakeEntry(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(1).has_value());
  EXPECT_FALSE(cache.Lookup(2).has_value());
  EXPECT_TRUE(cache.Lookup(3).has_value());
}

TEST(RunCacheTest, InsertOverwritesExistingKey) {
  RunCache cache(4);
  cache.Insert(9, MakeEntry(1.0));
  cache.Insert(9, MakeEntry(5.0));
  EXPECT_EQ(cache.size(), 1u);
  auto entry = cache.Lookup(9);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->duration, 5.0);
}

TEST(RunCacheTest, SeriesRoundTrips) {
  RunCache cache(4);
  RunCache::Entry entry;
  entry.series = {{1.0, 2.0, 3.0}, {4.0, 5.0}};
  entry.duration = 6.0;
  cache.Insert(11, std::move(entry));
  auto got = cache.Lookup(11);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->series.size(), 2u);
  EXPECT_EQ(got->series[0], (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(got->series[1], (std::vector<double>{4.0, 5.0}));
}

TEST(RunCacheTest, ConcurrentInsertsAndLookupsAreSafe) {
  // Exercised under TSAN via the `tsan` ctest label.
  RunCache cache(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 200; ++i) {
        const uint64_t key = static_cast<uint64_t>((t * 37 + i) % 100);
        if (i % 2 == 0) {
          cache.Insert(key, MakeEntry(static_cast<double>(i)));
        } else {
          cache.Lookup(key);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 64u);
  EXPECT_EQ(cache.hits() + cache.misses(), 4u * 100u);
}

}  // namespace
}  // namespace contender::sim
