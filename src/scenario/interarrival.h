// The seeded sampling primitives every scenario draws through: the
// inverse-transform exponential gap and the Bernoulli deadline draw.
// Draw order is part of the contract: each helper consumes a fixed number
// of Rng draws (gap: one Uniform01; deadline: one Uniform01, plus one
// Uniform(min, max) only when the Bernoulli fires), so a scenario that
// draws template → gap → deadline reproduces the streams
// scenario_parity_test pins.

#ifndef CONTENDER_SCENARIO_INTERARRIVAL_H_
#define CONTENDER_SCENARIO_INTERARRIVAL_H_

#include <optional>

#include "util/random.h"
#include "util/units.h"

namespace contender::scenario {

/// One exponential interarrival gap with the given mean, via inverse
/// transform: mean * (-log1p(-u)) with u = rng->Uniform01().
units::Seconds ExponentialGap(Rng* rng, units::Seconds mean);

/// Bernoulli SLA deadline: when `probability` > 0, draws one Uniform01;
/// if it lands below `probability`, draws slack uniform in
/// [min_slack, max_slack) and returns arrival + slack * reference_latency.
/// Otherwise (including probability == 0, which consumes no draws at all)
/// returns nullopt.
std::optional<units::Seconds> MaybeDeadline(Rng* rng, double probability,
                                            double min_slack,
                                            double max_slack,
                                            units::Seconds arrival,
                                            units::Seconds reference_latency);

}  // namespace contender::scenario

#endif  // CONTENDER_SCENARIO_INTERARRIVAL_H_
