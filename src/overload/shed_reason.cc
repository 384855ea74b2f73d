#include "overload/shed_reason.h"

namespace contender::overload {

const char* ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueDelay:
      return "queue-delay";
    case ShedReason::kQuota:
      return "quota";
    case ShedReason::kMemoryPressure:
      return "memory-pressure";
    case ShedReason::kCriticalityBrownout:
      return "criticality-brownout";
  }
  return "unknown";
}

std::optional<ShedReason> ShedReasonFromString(const std::string& name) {
  for (ShedReason reason : AllShedReasons()) {
    if (name == ShedReasonName(reason)) return reason;
  }
  return std::nullopt;
}

const std::vector<ShedReason>& AllShedReasons() {
  static const std::vector<ShedReason>* all = new std::vector<ShedReason>{
      ShedReason::kQueueDelay,          ShedReason::kQuota,
      ShedReason::kMemoryPressure,      ShedReason::kCriticalityBrownout,
  };
  return *all;
}

const char* CriticalityName(Criticality criticality) {
  switch (criticality) {
    case Criticality::kSheddable:
      return "sheddable";
    case Criticality::kStandard:
      return "standard";
    case Criticality::kCritical:
      return "critical";
  }
  return "unknown";
}

std::optional<Criticality> CriticalityFromString(const std::string& name) {
  for (Criticality criticality : AllCriticalities()) {
    if (name == CriticalityName(criticality)) return criticality;
  }
  return std::nullopt;
}

const std::vector<Criticality>& AllCriticalities() {
  static const std::vector<Criticality>* all = new std::vector<Criticality>{
      Criticality::kSheddable,
      Criticality::kStandard,
      Criticality::kCritical,
  };
  return *all;
}

Criticality CriticalityForTenant(int tenant_id) {
  if (tenant_id < 0) return Criticality::kStandard;
  switch (tenant_id % 3) {
    case 0:
      return Criticality::kCritical;
    case 1:
      return Criticality::kStandard;
    default:
      return Criticality::kSheddable;
  }
}

}  // namespace contender::overload
