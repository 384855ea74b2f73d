// The disk bandwidth-sharing model: given how many streams (sequential scan
// groups and random-I/O streams) are active, computes the byte rate of each
// sequential group and each stream's share of device time.
//
// Model: processor sharing of device time. With S concurrent streams each
// stream owns 1/S of the disk; a sequential scan group converts its slice
// at the seek-degraded sequential bandwidth, while a random (seek-bound)
// stream converts its slice at its intrinsic random-I/O rate — so random
// throughput also falls as 1/S, as on a real spindle: a seek-bound stream
// competing with S-1 others waits behind their requests for every read.

#ifndef CONTENDER_SIM_DISK_H_
#define CONTENDER_SIM_DISK_H_

#include "sim/config.h"

namespace contender::sim {

/// The fair-share rule's output for one stream count.
struct DiskShare {
  /// Rate granted to each sequential scan group (all groups equal).
  double seq_group_rate = 0.0;
  /// Each stream's share of device time, 1/S. A random stream's rate is
  /// its intrinsic cap times this share.
  double share = 0.0;
};

/// Computes the fair-share rule described above for `streams` concurrent
/// streams. With zero streams both values are zero.
inline DiskShare ShareDiskBandwidth(const SimConfig& config, int streams) {
  if (streams == 0) return {};
  const double effective_bandwidth =
      config.seq_bandwidth /
      (1.0 + config.seek_overhead * static_cast<double>(streams - 1));
  const double share = 1.0 / static_cast<double>(streams);
  return {effective_bandwidth * share, share};
}

}  // namespace contender::sim

#endif  // CONTENDER_SIM_DISK_H_
