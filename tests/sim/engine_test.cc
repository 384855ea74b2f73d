#include "sim/engine.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "sim/spoiler.h"
#include "util/logging.h"

namespace contender::sim {
namespace {

// A noise-free machine for hand-computable scenarios.
SimConfig QuietConfig() {
  SimConfig c;
  c.seq_bandwidth = 100.0 * kMB;
  c.random_bandwidth = 2.0 * kMB;
  c.spill_bandwidth = 4.0 * kMB;
  c.seek_overhead = 0.0;
  c.random_io_sigma = 0.0;
  c.spill_io_sigma = 0.0;
  c.cpu_jitter = 0.0;
  c.startup_cpu_seconds = 0.0;
  c.ram_bytes = 8.0 * kGB;
  c.os_reserved_bytes = 1.0 * kGB;
  c.buffer_pool_fraction = 1.0;
  return c;
}

QuerySpec ScanQuery(const std::string& name, TableId table, double bytes,
                    bool cacheable = false, double table_bytes = -1.0) {
  QuerySpec q;
  q.name = name;
  Phase p;
  p.seq_io_bytes = bytes;
  p.table = table;
  p.table_bytes = table_bytes < 0.0 ? bytes : table_bytes;
  p.cacheable = cacheable;
  q.phases.push_back(p);
  return q;
}

TEST(EngineTest, SingleScanLatencyIsBytesOverBandwidth) {
  Engine engine(QuietConfig(), 1);
  const int pid = engine.AddProcess(ScanQuery("s", 0, 1000.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  const ProcessResult& r = engine.result(pid);
  EXPECT_TRUE(r.completed);
  EXPECT_NEAR(r.latency().value(), 10.0, 1e-6);
  EXPECT_NEAR(r.io_busy_seconds, 10.0, 1e-6);
  EXPECT_NEAR(r.disk_bytes_read, 1000.0 * kMB, 1.0);
  EXPECT_DOUBLE_EQ(r.io_fraction().value(), 1.0);
}

TEST(EngineTest, CpuAndIoOverlapWithinPhase) {
  Engine engine(QuietConfig(), 1);
  QuerySpec q = ScanQuery("s", 0, 500.0 * kMB);  // 5 s of I/O
  q.phases[0].cpu_seconds = 8.0;                 // longer CPU leg
  const int pid = engine.AddProcess(q, units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  const ProcessResult& r = engine.result(pid);
  EXPECT_NEAR(r.latency().value(), 8.0, 1e-6);          // max(io, cpu)
  EXPECT_NEAR(r.io_busy_seconds, 5.0, 1e-6);    // I/O leg finished first
  EXPECT_NEAR(r.cpu_busy_seconds, 8.0, 1e-6);
  EXPECT_NEAR(r.io_fraction().value(), 5.0 / 8.0, 1e-6);
}

TEST(EngineTest, PhasesRunSequentially) {
  Engine engine(QuietConfig(), 1);
  QuerySpec q;
  q.name = "two-phase";
  Phase a;
  a.seq_io_bytes = 100.0 * kMB;
  a.table = 0;
  Phase b;
  b.cpu_seconds = 3.0;
  q.phases = {a, b};
  const int pid = engine.AddProcess(q, units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(pid).latency().value(), 1.0 + 3.0, 1e-6);
}

TEST(EngineTest, DisjointScansSlowEachOtherDown) {
  Engine engine(QuietConfig(), 1);
  const int a = engine.AddProcess(ScanQuery("a", 0, 500.0 * kMB), units::Seconds(0.0));
  const int b = engine.AddProcess(ScanQuery("b", 1, 500.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  // Two streams split the disk: both finish at 10 s instead of 5 s.
  EXPECT_NEAR(engine.result(a).latency().value(), 10.0, 1e-6);
  EXPECT_NEAR(engine.result(b).latency().value(), 10.0, 1e-6);
}

TEST(EngineTest, SharedScansProceedAtGroupRate) {
  Engine engine(QuietConfig(), 1);
  const int a = engine.AddProcess(ScanQuery("a", 7, 500.0 * kMB), units::Seconds(0.0));
  const int b = engine.AddProcess(ScanQuery("b", 7, 500.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  // Synchronized scan: one stream serves both; each finishes in 5 s.
  EXPECT_NEAR(engine.result(a).latency().value(), 5.0, 1e-6);
  EXPECT_NEAR(engine.result(b).latency().value(), 5.0, 1e-6);
  // Each member is accounted half the physical reads, half shared savings.
  EXPECT_NEAR(engine.result(a).disk_bytes_read, 250.0 * kMB, 1.0);
  EXPECT_NEAR(engine.result(a).bytes_saved_by_shared_scan, 250.0 * kMB, 1.0);
}

TEST(EngineTest, NegativeTableIdsNeverShare) {
  Engine engine(QuietConfig(), 1);
  const int a = engine.AddProcess(ScanQuery("a", -5, 500.0 * kMB), units::Seconds(0.0));
  const int b = engine.AddProcess(ScanQuery("b", -5, 500.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(a).latency().value(), 10.0, 1e-6);
  EXPECT_NEAR(engine.result(b).latency().value(), 10.0, 1e-6);
}

TEST(EngineTest, DimensionTableCachedAfterFirstRead) {
  Engine engine(QuietConfig(), 1);
  const int a =
      engine.AddProcess(ScanQuery("a", 3, 200.0 * kMB, /*cacheable=*/true),
                        units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(a).latency().value(), 2.0, 1e-6);
  // Second read is served from the buffer pool.
  const int b =
      engine.AddProcess(ScanQuery("b", 3, 200.0 * kMB, /*cacheable=*/true),
                        engine.now());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(b).latency().value(), 0.0, 1e-6);
  EXPECT_NEAR(engine.result(b).bytes_saved_by_cache, 200.0 * kMB, 1.0);
  EXPECT_DOUBLE_EQ(engine.result(b).disk_bytes_read, 0.0);
}

TEST(EngineTest, RandomIoRunsAtIntrinsicRate) {
  Engine engine(QuietConfig(), 1);
  QuerySpec q;
  q.name = "rnd";
  Phase p;
  p.rnd_io_bytes = 20.0 * kMB;  // at 2 MB/s -> 10 s
  q.phases.push_back(p);
  const int pid = engine.AddProcess(q, units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(pid).latency().value(), 10.0, 1e-6);
}

TEST(EngineTest, MemoryGrantedWhenAvailable) {
  Engine engine(QuietConfig(), 1);
  QuerySpec q;
  q.name = "mem";
  Phase p;
  p.cpu_seconds = 1.0;
  p.mem_demand_bytes = 2.0 * kGB;
  p.spillable = true;
  q.phases.push_back(p);
  const int pid = engine.AddProcess(q, units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  const ProcessResult& r = engine.result(pid);
  EXPECT_NEAR(r.max_memory_granted, 2.0 * kGB, 1.0);
  EXPECT_DOUBLE_EQ(r.spill_bytes, 0.0);
  EXPECT_NEAR(r.latency().value(), 1.0, 1e-6);
  // Grant released at completion.
  EXPECT_DOUBLE_EQ(engine.memory_in_use().value(), 0.0);
}

TEST(EngineTest, MemoryShortfallSpills) {
  SimConfig cfg = QuietConfig();
  cfg.spill_amplification = 2.0;
  Engine engine(cfg, 1);
  // Pin most of RAM via an immortal process.
  QuerySpec pin;
  pin.name = "pin";
  pin.immortal = true;
  pin.pinned_memory_bytes = 6.0 * kGB;  // grantable is 7 GB
  Phase idle;
  idle.cpu_seconds = 1e30;
  pin.phases.push_back(idle);
  engine.AddProcess(pin, units::Seconds(0.0));

  QuerySpec q;
  q.name = "spiller";
  Phase p;
  p.cpu_seconds = 1.0;
  p.mem_demand_bytes = 2.0 * kGB;  // only 1 GB available -> 1 GB shortfall
  p.spillable = true;
  q.phases.push_back(p);
  const int pid = engine.AddProcess(q, units::Seconds(0.0));
  ASSERT_TRUE(engine.RunUntilProcessCompletes(pid).ok());
  const ProcessResult& r = engine.result(pid);
  EXPECT_NEAR(r.spill_bytes, 2.0 * kGB, 1.0);  // 1 GB * amplification 2
  EXPECT_NEAR(r.max_memory_granted, 1.0 * kGB, 1.0);
  // Spill runs at spill_bandwidth (4 MB/s), sole I/O stream: 2 GB -> 500 s.
  EXPECT_NEAR(r.latency().value(), 500.0, 1.0);
}

TEST(EngineTest, CompletionReleasesTheGrantedPinNotTheRequestedOne) {
  Engine engine(QuietConfig(), 1);  // grantable: 7 GB
  // A long mortal query pins 4 GB...
  QuerySpec holder;
  holder.name = "holder";
  holder.pinned_memory_bytes = 4.0 * kGB;
  Phase long_cpu;
  long_cpu.cpu_seconds = 100.0;
  holder.phases.push_back(long_cpu);
  engine.AddProcess(holder, units::Seconds(0.0));
  // ...then a short one asks for 5 GB but is granted only the 3 GB left.
  QuerySpec clipped;
  clipped.name = "clipped";
  clipped.pinned_memory_bytes = 5.0 * kGB;
  Phase short_cpu;
  short_cpu.cpu_seconds = 1.0;
  clipped.phases.push_back(short_cpu);
  const int clipped_id = engine.AddProcess(clipped, units::Seconds(1.0));

  std::vector<double> in_use_at_completion;
  engine.SetCompletionCallback([&](const ProcessResult& r) {
    in_use_at_completion.push_back(engine.memory_in_use().value());
    (void)r;
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(clipped_id).max_memory_granted, 3.0 * kGB, 1.0);
  ASSERT_EQ(in_use_at_completion.size(), 2u);
  // The clipped query finishes first and releases its 3 GB grant: the
  // holder's 4 GB stays pinned until the holder itself completes.
  EXPECT_DOUBLE_EQ(in_use_at_completion[0], 4.0 * kGB);
  EXPECT_DOUBLE_EQ(in_use_at_completion[1], 0.0);
}

TEST(EngineTest, ArrivalsActivateAtStartTime) {
  Engine engine(QuietConfig(), 1);
  const int a = engine.AddProcess(ScanQuery("a", 0, 400.0 * kMB), units::Seconds(0.0));
  const int b = engine.AddProcess(ScanQuery("b", 1, 100.0 * kMB), units::Seconds(2.0));
  ASSERT_TRUE(engine.Run().ok());
  // a runs alone for 2 s (200 MB), shares with b for 2 s (+100 MB), then
  // finishes its last 100 MB alone: done at t = 5 s.
  EXPECT_NEAR(engine.result(a).latency().value(), 5.0, 1e-6);
  EXPECT_NEAR(engine.result(b).start_time, 2.0, 1e-9);
  // b: 100 MB at 50 MB/s while sharing -> ends at 4 s (latency 2 s).
  EXPECT_NEAR(engine.result(b).latency().value(), 2.0, 1e-6);
}

TEST(EngineTest, CompletionCallbackCanChainProcesses) {
  Engine engine(QuietConfig(), 1);
  int completions = 0;
  engine.SetCompletionCallback([&](const ProcessResult& r) {
    ++completions;
    if (completions < 3) {
      engine.AddProcess(ScanQuery("next", 0, 100.0 * kMB), engine.now());
    }
    (void)r;
  });
  engine.AddProcess(ScanQuery("first", 0, 100.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(completions, 3);
  EXPECT_NEAR(engine.now().value(), 3.0, 1e-6);
}

TEST(EngineTest, RequestStopAbandonsRun) {
  Engine engine(QuietConfig(), 1);
  engine.SetCompletionCallback(
      [&](const ProcessResult&) { engine.RequestStop(); });
  engine.AddProcess(ScanQuery("a", 0, 100.0 * kMB), units::Seconds(0.0));
  engine.AddProcess(ScanQuery("b", 1, 10000.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_LT(engine.now().value(), 10.0);
}

TEST(EngineTest, DeterministicAcrossRunsWithSameSeed) {
  SimConfig cfg = QuietConfig();
  cfg.random_io_sigma = 0.3;
  cfg.cpu_jitter = 0.05;
  auto run_once = [&]() {
    Engine engine(cfg, 99);
    QuerySpec q;
    q.name = "noisy";
    Phase p;
    p.rnd_io_bytes = 10.0 * kMB;
    p.cpu_seconds = 2.0;
    q.phases.push_back(p);
    const int pid = engine.AddProcess(q, units::Seconds(0.0));
    CONTENDER_CHECK(engine.Run().ok());
    return engine.result(pid).latency().value();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(EngineTest, StartupCostPrependedForMortalProcesses) {
  SimConfig cfg = QuietConfig();
  cfg.startup_cpu_seconds = 0.5;
  Engine engine(cfg, 1);
  const int pid = engine.AddProcess(ScanQuery("s", 0, 100.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(pid).latency().value(), 1.5, 1e-6);
}

TEST(EngineTest, CpuOversubscriptionSharesCores) {
  SimConfig cfg = QuietConfig();
  cfg.cores = 2;
  Engine engine(cfg, 1);
  std::vector<int> pids;
  for (int i = 0; i < 4; ++i) {
    QuerySpec q;
    q.name = "cpu";
    Phase p;
    p.cpu_seconds = 2.0;
    q.phases.push_back(p);
    pids.push_back(engine.AddProcess(q, units::Seconds(0.0)));
  }
  ASSERT_TRUE(engine.Run().ok());
  // 4 processes on 2 cores: each runs at rate 0.5 -> 4 s.
  for (int pid : pids) {
    EXPECT_NEAR(engine.result(pid).latency().value(), 4.0, 1e-6);
  }
}

TEST(EngineTest, ConservationOfDiskBytes) {
  SimConfig cfg = QuietConfig();
  cfg.seek_overhead = 0.08;
  Engine engine(cfg, 7);
  std::vector<int> pids;
  for (int i = 0; i < 3; ++i) {
    pids.push_back(engine.AddProcess(
        ScanQuery("q" + std::to_string(i), i, (200.0 + 100.0 * i) * kMB),
        units::Seconds(static_cast<double>(i))));
  }
  ASSERT_TRUE(engine.Run().ok());
  double total_read = 0.0;
  for (int pid : pids) total_read += engine.result(pid).disk_bytes_read;
  EXPECT_NEAR(total_read, (200.0 + 300.0 + 400.0) * kMB, 10.0);
  // Bytes served can never exceed bandwidth * elapsed time.
  EXPECT_LE(total_read, cfg.seq_bandwidth * engine.now().value() + 1.0);
}

TEST(EngineTest, SpoilerSlowsPrimaryProportionally) {
  SimConfig cfg = QuietConfig();
  Engine engine(cfg, 1);
  for (const QuerySpec& s : MakeSpoiler(cfg, units::Mpl(3))) {
    engine.AddProcess(s, units::Seconds(0.0));
  }
  const int pid = engine.AddProcess(ScanQuery("p", 0, 500.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.RunUntilProcessCompletes(pid).ok());
  // 3 streams (2 spoiler readers + primary): 5 s * 3 = 15 s.
  EXPECT_NEAR(engine.result(pid).latency().value(), 15.0, 1e-6);
}

TEST(EngineTest, RunUntilProcessCompletesIgnoresImmortals) {
  SimConfig cfg = QuietConfig();
  Engine engine(cfg, 1);
  QuerySpec immortal;
  immortal.name = "forever";
  immortal.immortal = true;
  Phase p;
  p.seq_io_bytes = 1e30;
  p.table = -1;
  immortal.phases.push_back(p);
  engine.AddProcess(immortal, units::Seconds(0.0));
  const int pid = engine.AddProcess(ScanQuery("p", 0, 100.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.RunUntilProcessCompletes(pid).ok());
  EXPECT_TRUE(engine.result(pid).completed);
  // Run() also terminates: no mortal work remains.
  ASSERT_TRUE(engine.Run().ok());
}

TEST(EngineTest, InvalidProcessIdRejected) {
  Engine engine(QuietConfig(), 1);
  EXPECT_FALSE(engine.RunUntilProcessCompletes(0).ok());
  EXPECT_FALSE(engine.RunUntilProcessCompletes(-1).ok());
}

}  // namespace
}  // namespace contender::sim
