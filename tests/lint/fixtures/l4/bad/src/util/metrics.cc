#include "util/metrics.h"

namespace subdex {

Counter& RequestCounter(MetricsRegistry& registry) {
  return registry.GetCounter("BadName", "requests served");
}

}  // namespace subdex
