#ifndef SUBDEX_ENGINE_SDE_ENGINE_H_
#define SUBDEX_ENGINE_SDE_ENGINE_H_

#include <memory>
#include <vector>

#include "engine/group_cache.h"
#include "engine/recommendation_builder.h"
#include "engine/rm_pipeline.h"
#include "engine/step_timings.h"
#include "engine/step_trace.h"
#include "util/deadline.h"
#include "util/lock_rank.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/status.h"

namespace subdex {

/// Everything the engine produced for one exploration step.
struct StepResult {
  GroupSelection selection;
  size_t group_size = 0;
  /// The k displayed rating maps (Problem 1).
  std::vector<ScoredRatingMap> maps;
  /// The top-o next-step recommendations (Problem 2); empty when the step
  /// was executed without recommendations (User-Driven mode).
  std::vector<Recommendation> recommendations;
  /// Where the step's time and pruning work went: phase spans, the
  /// display and fan-out pruning decisions, cache outcomes.
  /// StepTraceJson(step, /*include_timings=*/false) is deterministic for a
  /// fixed seed and num_threads = 1.
  StepTrace trace;
  /// Wall-clock time between picking the operation and having maps +
  /// recommendations ready — the paper's per-step running time measure.
  double elapsed_ms = 0.0;
  /// True when the step's deadline (or a cancellation) cut work short and
  /// the result is best-effort rather than exact.
  bool degraded = false;
  /// True when the step was explicitly cancelled: maps/recommendations are
  /// empty and nothing was committed to the exploration history.
  bool cancelled = false;
  /// The earliest pipeline phase the budget interrupted (kNone when the
  /// step ran to completion). Later phases were skipped or approximated.
  StepPhase cut_phase = StepPhase::kNone;
  /// Order-sensitive hash of the user-visible result (selection, maps,
  /// recommendations; engine/step_digest.h defines the coverage). The
  /// session journal persists it so replay recovery can verify that
  /// re-executing the step reproduced what the user was shown. 0 for
  /// cancelled steps (nothing was shown or committed).
  uint64_t digest = 0;
};

/// Per-step execution controls. The default-constructed options reproduce
/// the classic ExecuteStep(selection, true): no deadline, no cancellation,
/// recommendations on.
struct StepOptions {
  bool with_recommendations = true;
  /// Soft wall-clock budget. The step degrades in a fixed order as the
  /// deadline approaches — recommendations are dropped first, then the
  /// diversified RM-set falls back to best-so-far top-k by interestingness
  /// — and always returns a valid StepResult (`degraded` set).
  Deadline deadline;
  /// Cooperative cancellation. Unlike an expired deadline, a cancelled
  /// step returns an empty result and leaves the history untouched.
  CancellationToken token;
};

/// The SDE Engine of Figure 4: orchestrates group materialization, the
/// RM-set pipeline and the recommendation builder, and maintains the
/// history of displayed maps (RM) across steps. The engine owns the one
/// long-lived thread pool of the process ("parallel query execution") and
/// threads it through every hot path — the recommendation fan-out and the
/// RM generator's phase loops — so no component ever spawns threads per
/// step.
///
/// Thread safety: the cross-step exploration history (seen maps and
/// explored selections) is guarded by `mu_`, so concurrent ExecuteStep
/// calls on one engine are safe — the history-dependent phases of a step
/// serialize on `mu_`, while the parallelism *within* a step (phase scans,
/// recommendation fan-out) still runs on the shared pool.
class SdeEngine {
 public:
  SdeEngine(const SubjectiveDatabase* db, EngineConfig config);

  SUBDEX_NODISCARD const SubjectiveDatabase& db() const { return *db_; }
  SUBDEX_NODISCARD const EngineConfig& config() const { return config_; }

  /// Snapshot of the displayed-maps history at the time of the call.
  SUBDEX_NODISCARD SeenMapsTracker seen() const SUBDEX_EXCLUDES(mu_);

  /// Executes one exploration step: materializes the selection's rating
  /// group, selects the k display maps, records them as seen, and — when
  /// `with_recommendations` — ranks next-step operations against the
  /// updated history.
  StepResult ExecuteStep(const GroupSelection& selection,
                         bool with_recommendations) SUBDEX_EXCLUDES(mu_);

  /// Deadline-aware, cancellable variant with anytime semantics. Budget is
  /// checked at phase boundaries and the step degrades in a fixed order
  /// (recommendations first, then GMM diversification, then scan depth)
  /// rather than failing; `result.degraded`/`result.cut_phase` report what
  /// was cut. A step whose deadline is already expired on entry returns an
  /// empty degraded result without materializing anything.
  ///
  /// History semantics: maps actually displayed by a (possibly degraded)
  /// step are committed to the seen/explored history; an explicitly
  /// cancelled step commits nothing. The strong exception guarantee holds
  /// throughout: a step that throws (I/O failure, injected fault) leaves
  /// the history exactly as it was.
  StepResult ExecuteStep(const GroupSelection& selection,
                         const StepOptions& options) SUBDEX_EXCLUDES(mu_);

  /// Forgets all displayed maps (fresh exploration).
  void ResetHistory() SUBDEX_EXCLUDES(mu_);

  /// Selections whose maps have been displayed this exploration, without
  /// duplicates (revisiting a selection does not grow the list); a
  /// snapshot, like seen().
  SUBDEX_NODISCARD std::vector<GroupSelection> explored_selections() const
      SUBDEX_EXCLUDES(mu_);

  /// The shared rating-group cache (hit statistics for benchmarks).
  SUBDEX_NODISCARD
  const RatingGroupCache& group_cache() const { return *cache_; }

  /// Snapshot of the process-wide metrics registry (all subsystems, not
  /// just this engine): counters, gauges, and histogram buckets at the
  /// time of the call. Export with ToPrometheusText() or ToJson().
  SUBDEX_NODISCARD subdex::MetricsSnapshot MetricsSnapshot() const;

  /// The engine-owned worker pool; null when `num_threads` <= 1. Created
  /// once per engine and reused across every step.
  SUBDEX_NODISCARD const ThreadPool* pool() const { return pool_.get(); }

 private:
  const SubjectiveDatabase* db_;
  EngineConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  RmPipeline pipeline_;
  std::unique_ptr<RatingGroupCache> cache_;
  RecommendationBuilder builder_;

  // Cross-step exploration history. SeenMapsTracker itself is a plain
  // (externally synchronized) value type; here it is protected by mu_.
  mutable Mutex mu_{"engine.history", lock_rank::kEngineHistory};
  SeenMapsTracker seen_ SUBDEX_GUARDED_BY(mu_);
  std::vector<GroupSelection> explored_ SUBDEX_GUARDED_BY(mu_);
};

}  // namespace subdex

#endif  // SUBDEX_ENGINE_SDE_ENGINE_H_
