#ifndef SUBDEX_ENGINE_STEP_TRACE_H_
#define SUBDEX_ENGINE_STEP_TRACE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "engine/step_timings.h"
#include "util/status.h"

namespace subdex {

struct StepResult;

/// Structured trace of one exploration step — the per-interaction record
/// the paper's evaluation aggregates (per-step latency breakdowns, pruning
/// effectiveness, cache behaviour), and the step's only account of where
/// its time and pruning work went: the engine feeds the per-phase
/// histograms from these spans. Attached to every StepResult, which holds
/// the step's outcome (group size, degradation); StepTraceJson renders
/// both. The counts are exact; the span timings are wall-clock and
/// therefore run-dependent.
struct StepTrace {
  /// One executed pipeline phase: offset from step start plus duration.
  /// `completed` is false when the budget cut the phase short (the phase
  /// still produced its best-effort output — see DESIGN.md §8); an
  /// incomplete span of zero length is a phase the budget skipped.
  struct PhaseSpan {
    StepPhase phase = StepPhase::kNone;
    double start_ms = 0.0;
    double duration_ms = 0.0;
    bool completed = true;
  };

  /// Pruning decisions of one pipeline run (Algorithm 1 + Algorithm 3 /
  /// SAR): how many candidate rating maps entered, how many each scheme
  /// killed, how many survived to exact scoring.
  struct PruningTrace {
    size_t candidates = 0;
    size_t pruned_ci = 0;
    size_t pruned_mab = 0;
    size_t mab_accepted = 0;
    size_t survivors = 0;
    size_t phases_run = 0;
    size_t record_updates = 0;
  };

  /// Rating-group cache outcomes attributed to the step (deltas of the
  /// shared cache's stats across the step; concurrent steps on one engine
  /// may interleave their deltas).
  struct CacheTrace {
    size_t hits = 0;
    size_t misses = 0;
    size_t coalesced = 0;
  };

  std::vector<PhaseSpan> spans;
  /// The display pipeline's pruning decisions (Problem 1).
  PruningTrace display;
  /// Aggregate pruning over the recommendation fan-out (Problem 2): every
  /// candidate operation runs the full pipeline on its target group.
  PruningTrace recommendations;
  CacheTrace cache;
};

/// Single-line JSON object of `step`'s outcome and trace. With
/// `include_timings` false, the span start/duration fields are omitted
/// (phase order and completion flags remain), making the output a pure
/// function of the engine's deterministic execution.
SUBDEX_NODISCARD std::string StepTraceJson(const StepResult& step,
                                           bool include_timings = true);

}  // namespace subdex

#endif  // SUBDEX_ENGINE_STEP_TRACE_H_
