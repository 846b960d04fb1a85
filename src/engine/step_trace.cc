#include "engine/step_trace.h"

#include <sstream>

#include "engine/sde_engine.h"
#include "util/string_util.h"

namespace subdex {

namespace {

void WritePruning(std::ostringstream& out, const char* key,
                  const StepTrace::PruningTrace& p) {
  out << '"' << key << "\":{\"candidates\":" << p.candidates
      << ",\"pruned_ci\":" << p.pruned_ci
      << ",\"pruned_mab\":" << p.pruned_mab
      << ",\"mab_accepted\":" << p.mab_accepted
      << ",\"survivors\":" << p.survivors
      << ",\"phases_run\":" << p.phases_run
      << ",\"record_updates\":" << p.record_updates << '}';
}

}  // namespace

std::string StepTraceJson(const StepResult& step, bool include_timings) {
  const StepTrace& trace = step.trace;
  std::ostringstream out;
  out << "{\"group_size\":" << step.group_size
      << ",\"maps_displayed\":" << step.maps.size()
      << ",\"recommendations\":" << step.recommendations.size()
      << ",\"degraded\":" << (step.degraded ? "true" : "false")
      << ",\"cancelled\":" << (step.cancelled ? "true" : "false")
      << ",\"cut_phase\":\"" << StepPhaseName(step.cut_phase) << "\"";
  out << ",\"spans\":[";
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const StepTrace::PhaseSpan& s = trace.spans[i];
    if (i > 0) out << ',';
    out << "{\"phase\":\"" << StepPhaseName(s.phase) << "\"";
    if (include_timings) {
      out << ",\"start_ms\":" << FormatDouble(s.start_ms, 3)
          << ",\"duration_ms\":" << FormatDouble(s.duration_ms, 3);
    }
    out << ",\"completed\":" << (s.completed ? "true" : "false") << '}';
  }
  out << "],";
  WritePruning(out, "display", trace.display);
  out << ',';
  WritePruning(out, "recommendation", trace.recommendations);
  out << ",\"cache\":{\"hits\":" << trace.cache.hits
      << ",\"misses\":" << trace.cache.misses
      << ",\"coalesced\":" << trace.cache.coalesced << "}}";
  return out.str();
}

}  // namespace subdex
