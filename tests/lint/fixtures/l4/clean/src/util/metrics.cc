#include "util/metrics.h"

namespace subdex {

Counter& RequestCounter(MetricsRegistry& registry) {
  return registry.GetCounter("subdex_util_requests_total", "requests served");
}

// The registry's own plumbing passes names through as values.
Counter& Named(MetricsRegistry& registry, const std::string& name) {
  return registry.GetCounter(name, "");
}

}  // namespace subdex
