#ifndef SUBDEX_ENGINE_STEP_TIMINGS_H_
#define SUBDEX_ENGINE_STEP_TIMINGS_H_

namespace subdex {

/// The pipeline phases of one exploration step, in execution order. Used
/// by the anytime/deadline machinery to report which phase a degraded step
/// cut short (StepResult::cut_phase).
enum class StepPhase {
  /// Nothing was cut (the step ran to completion).
  kNone = 0,
  /// Rating-group materialization (the step returned before doing any
  /// work — e.g. the deadline was already expired on entry).
  kMaterialize,
  /// The RM-Generator's phased scans stopped before consuming the whole
  /// group; the returned maps are scored over the records processed so
  /// far.
  kRmGeneration,
  /// GMM diversification was skipped; the returned maps are the
  /// best-so-far top-k by DW interestingness instead of the diversified
  /// RM-set.
  kGmmSelection,
  /// The recommendation fan-out was skipped or stopped early; the
  /// recommendation list is empty or incomplete.
  kRecommendations,
};

inline const char* StepPhaseName(StepPhase phase) {
  switch (phase) {
    case StepPhase::kNone:
      return "none";
    case StepPhase::kMaterialize:
      return "materialize";
    case StepPhase::kRmGeneration:
      return "rm-generation";
    case StepPhase::kGmmSelection:
      return "gmm-selection";
    case StepPhase::kRecommendations:
      return "recommendations";
  }
  return "unknown";
}

/// Wall-clock split of one RmPipeline::SelectForDisplay call between its
/// two stages. A step's own account of where its time went is
/// StepResult::trace; this is the pipeline's out-parameter, accumulated
/// into by every call that is handed it.
struct StepTimings {
  /// RM-Generator phases (Algorithm 1).
  double rm_generation_ms = 0.0;
  /// GMM diversification.
  double gmm_selection_ms = 0.0;
};

}  // namespace subdex

#endif  // SUBDEX_ENGINE_STEP_TIMINGS_H_
