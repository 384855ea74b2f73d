#include "overload/node_control.h"

namespace contender::overload {

NodeOverloadControl::NodeOverloadControl(const NodeOverloadOptions& options,
                                         int target_mpl)
    : options_(options),
      target_mpl_(target_mpl),
      limiter_(target_mpl),
      codel_(kCoDel) {}

int NodeOverloadControl::EffectiveLimit() const {
  return options_.adaptive_limit ? limiter_.limit() : target_mpl_;
}

void NodeOverloadControl::OnCompletion(units::Seconds predicted,
                                       units::Seconds observed) {
  if (!options_.adaptive_limit) return;
  limiter_.OnCompletion(predicted, observed);
}

bool NodeOverloadControl::ShouldShedQueueHead(units::Seconds now,
                                              units::Seconds sojourn) {
  if (!options_.codel_shed) return false;
  return codel_.ShouldShed(now, sojourn);
}

}  // namespace contender::overload
