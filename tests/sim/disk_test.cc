#include "sim/disk.h"

#include <vector>

#include <gtest/gtest.h>

#include "sim/reference_sim.h"
#include "util/random.h"

namespace contender::sim {
namespace {

SimConfig Config() {
  SimConfig c;
  c.seq_bandwidth = 100.0 * kMB;
  c.random_bandwidth = 2.0 * kMB;
  c.seek_overhead = 0.1;
  return c;
}

TEST(DiskTest, NoStreamsNoRates) {
  const DiskShare d = ShareDiskBandwidth(Config(), 0);
  EXPECT_DOUBLE_EQ(d.seq_group_rate, 0.0);
  EXPECT_DOUBLE_EQ(d.share, 0.0);
}

TEST(DiskTest, SingleSequentialStreamGetsFullBandwidth) {
  const DiskShare d = ShareDiskBandwidth(Config(), 1);
  EXPECT_DOUBLE_EQ(d.seq_group_rate, 100.0 * kMB);
  EXPECT_DOUBLE_EQ(d.share, 1.0);
}

TEST(DiskTest, TwoSequentialStreamsShareWithSeekPenalty) {
  const DiskShare d = ShareDiskBandwidth(Config(), 2);
  // Effective bandwidth = 100 / 1.1; each group gets half of it.
  EXPECT_NEAR(d.seq_group_rate, 100.0 * kMB / 1.1 / 2.0, 1.0);
  EXPECT_DOUBLE_EQ(d.share, 0.5);
}

TEST(DiskTest, SingleRandomStreamCappedByIntrinsicRate) {
  const DiskShare d = ShareDiskBandwidth(Config(), 1);
  EXPECT_DOUBLE_EQ(2.0 * kMB * d.share, 2.0 * kMB);
}

TEST(DiskTest, RandomStreamDegradesWithTimeShare) {
  // 3 sequential groups and 1 random stream: the random stream owns 1/4
  // of device time.
  const DiskShare d = ShareDiskBandwidth(Config(), 4);
  EXPECT_DOUBLE_EQ(2.0 * kMB * d.share, 0.5 * kMB);
}

TEST(DiskTest, MoreStreamsNeverIncreasePerStreamRate) {
  double prev_seq = 1e18;
  double prev_share = 2.0;
  for (int streams = 1; streams <= 8; ++streams) {
    const DiskShare d = ShareDiskBandwidth(Config(), streams);
    EXPECT_LT(d.seq_group_rate, prev_seq);
    EXPECT_LT(d.share, prev_share);
    prev_seq = d.seq_group_rate;
    prev_share = d.share;
  }
}

TEST(DiskTest, ConservationSequentialRatesFitEffectiveBandwidth) {
  for (int groups = 1; groups <= 6; ++groups) {
    for (int randoms = 0; randoms <= 4; ++randoms) {
      const int streams = groups + randoms;
      const DiskShare d = ShareDiskBandwidth(Config(), streams);
      // Sequential byte throughput must not exceed the sequential slices.
      const double effective = 100.0 * kMB / (1.0 + 0.1 * (streams - 1));
      EXPECT_LE(d.seq_group_rate * groups,
                effective * groups / streams + 1.0);
      EXPECT_LE(2.0 * kMB * d.share, 2.0 * kMB / streams + 1.0);
    }
  }
}

TEST(DiskTest, HeterogeneousRandomCaps) {
  // 1 sequential group and 2 random streams: each random stream gets 1/3
  // of its own cap.
  const DiskShare d = ShareDiskBandwidth(Config(), 3);
  EXPECT_NEAR(1.0 * kMB * d.share, 1.0 * kMB / 3.0, 1.0);
  EXPECT_NEAR(4.0 * kMB * d.share, 4.0 * kMB / 3.0, 1.0);
}

// The engine multiplies each random stream's cap by the share; that must
// reproduce the replaced per-stream allocation exactly, for any mix of
// sequential groups and random caps.
TEST(DiskTest, MatchesTheReplacedAllocationBitForBit) {
  Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    SimConfig config = Config();
    config.seq_bandwidth = rng.Uniform(10.0, 500.0) * kMB;
    config.seek_overhead = rng.Uniform(0.0, 0.3);
    reference::DiskDemand demand;
    demand.num_seq_groups =
        static_cast<int>(rng.UniformInt(int64_t{0}, int64_t{6}));
    const int randoms =
        static_cast<int>(rng.UniformInt(int64_t{0}, int64_t{6}));
    for (int i = 0; i < randoms; ++i) {
      demand.random_stream_caps.push_back(rng.Uniform(0.5, 8.0) * kMB *
                                          rng.LogNormal(-0.045, 0.3));
    }
    const reference::DiskAllocation want =
        reference::AllocateDiskBandwidth(config, demand);
    const DiskShare got =
        ShareDiskBandwidth(config, demand.num_seq_groups + randoms);
    EXPECT_EQ(got.seq_group_rate, want.seq_group_rate);
    for (int i = 0; i < randoms; ++i) {
      const size_t k = static_cast<size_t>(i);
      EXPECT_EQ(demand.random_stream_caps[k] * got.share,
                want.random_stream_rates[k]);
    }
  }
}

}  // namespace
}  // namespace contender::sim
