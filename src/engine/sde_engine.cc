#include "engine/sde_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "engine/step_digest.h"

namespace subdex {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

EngineConfig WithDatabaseSize(EngineConfig config,
                              const SubjectiveDatabase& db) {
  if (config.utility.database_size == 0) {
    config.utility.database_size = db.num_records();
  }
  return config;
}

struct EngineMetrics {
  Counter& steps;
  Counter& degraded;
  Counter& cancelled;
  Histogram& step_ms;
  Histogram& materialize_ms;
  Histogram& rm_generation_ms;
  Histogram& gmm_selection_ms;
  Histogram& recommendation_ms;

  static EngineMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static EngineMetrics m{
        reg.GetCounter("subdex_engine_steps_total",
                       "Exploration steps executed (including degraded and "
                       "cancelled ones)"),
        reg.GetCounter("subdex_engine_degraded_steps_total",
                       "Steps whose deadline or cancellation cut work short "
                       "(best-effort results)"),
        reg.GetCounter("subdex_engine_cancelled_steps_total",
                       "Steps abandoned by explicit cancellation (nothing "
                       "displayed, history untouched)"),
        reg.GetHistogram("subdex_engine_step_ms",
                         MetricsRegistry::LatencyBucketsMs(),
                         "End-to-end per-step latency (the paper's per-step "
                         "running time measure)"),
        reg.GetHistogram("subdex_step_materialize_ms",
                         MetricsRegistry::LatencyBucketsMs(),
                         "Rating-group materialization phase duration"),
        reg.GetHistogram("subdex_step_rm_generation_ms",
                         MetricsRegistry::LatencyBucketsMs(),
                         "RM-Generator phase duration (display pipeline)"),
        reg.GetHistogram("subdex_step_gmm_selection_ms",
                         MetricsRegistry::LatencyBucketsMs(),
                         "GMM diversification phase duration (display "
                         "pipeline)"),
        reg.GetHistogram("subdex_step_recommendation_ms",
                         MetricsRegistry::LatencyBucketsMs(),
                         "Recommendation fan-out phase duration"),
    };
    return m;
  }

  // The duration histogram of a span's phase (spans never carry kNone).
  Histogram& PhaseMs(StepPhase phase) {
    switch (phase) {
      case StepPhase::kMaterialize:
        return materialize_ms;
      case StepPhase::kRmGeneration:
        return rm_generation_ms;
      case StepPhase::kGmmSelection:
        return gmm_selection_ms;
      default:
        return recommendation_ms;
    }
  }
};

// The generator's "survivors": candidates that reached exact full-data
// scoring, i.e. were never killed by CI or MAB pruning.
size_t Survivors(const RmGeneratorStats& s) {
  size_t killed = s.pruned_ci + s.pruned_mab;
  return killed >= s.num_candidates ? 0 : s.num_candidates - killed;
}

StepTrace::PruningTrace PruningTraceFrom(const RmGeneratorStats& s) {
  StepTrace::PruningTrace t;
  t.candidates = s.num_candidates;
  t.pruned_ci = s.pruned_ci;
  t.pruned_mab = s.pruned_mab;
  t.mab_accepted = s.mab_accepted;
  t.survivors = Survivors(s);
  t.phases_run = s.phases_run;
  t.record_updates = s.record_updates;
  return t;
}

}  // namespace

SdeEngine::SdeEngine(const SubjectiveDatabase* db, EngineConfig config)
    : db_(db),
      config_(WithDatabaseSize(config, *db)),
      pool_(config_.num_threads > 1
                ? std::make_unique<ThreadPool>(config_.num_threads)
                : nullptr),
      pipeline_(&config_, pool_.get()),
      cache_(std::make_unique<RatingGroupCache>(
          db, config_.group_cache_capacity)),
      builder_(db, &config_, &pipeline_, cache_.get(), pool_.get()),
      seen_(db->num_dimensions()) {}

StepResult SdeEngine::ExecuteStep(const GroupSelection& selection,
                                  bool with_recommendations) {
  StepOptions options;
  options.with_recommendations = with_recommendations;
  return ExecuteStep(selection, options);
}

StepResult SdeEngine::ExecuteStep(const GroupSelection& selection,
                                  const StepOptions& options) {
  Clock::time_point start = Clock::now();
  const RatingGroupCache::Stats cache_before = cache_->stats();

  const StopToken stop(options.deadline, options.token);

  StepResult result;
  result.selection = selection;

  // Records the earliest phase the budget interrupted; later cuts only
  // confirm the degradation, they don't move the marker back.
  auto cut = [&result](StepPhase phase) {
    result.degraded = true;
    if (result.cut_phase == StepPhase::kNone) result.cut_phase = phase;
  };

  // Publishes the step's outcome and trace to the global registry. Every
  // exit path (early-out, cancelled, committed) funnels through here so the
  // step counters never miss an outcome.
  auto finalize = [this, &result, &cache_before] {
    EngineMetrics& metrics = EngineMetrics::Get();
    metrics.steps.Increment();
    if (result.degraded) metrics.degraded.Increment();
    if (result.cancelled) metrics.cancelled.Increment();
    metrics.step_ms.Observe(result.elapsed_ms);
    for (const StepTrace::PhaseSpan& span : result.trace.spans) {
      // An incomplete span of zero length is a phase that never ran.
      if (!span.completed && span.duration_ms == 0.0) continue;
      metrics.PhaseMs(span.phase).Observe(span.duration_ms);
    }
    const RatingGroupCache::Stats cache_after = cache_->stats();
    result.trace.cache.hits = cache_after.hits - cache_before.hits;
    result.trace.cache.misses = cache_after.misses - cache_before.misses;
    result.trace.cache.coalesced =
        cache_after.coalesced - cache_before.coalesced;
  };

  // Out of budget before any work: return an empty (but valid) result
  // without materializing the group or touching the history. This is the
  // <5 ms path for steps submitted with an already-expired deadline.
  if (stop.ShouldStop()) {
    cut(StepPhase::kMaterialize);
    result.cancelled = stop.cancelled();
    result.trace.spans.push_back(
        {StepPhase::kMaterialize, 0.0, 0.0, /*completed=*/false});
    result.elapsed_ms = MsBetween(start, Clock::now());
    if (!result.cancelled) result.digest = ComputeStepDigest(*db_, result);
    finalize();
    return result;
  }

  RatingGroup group = cache_->Get(selection);
  result.trace.spans.push_back({StepPhase::kMaterialize, 0.0,
                                MsBetween(start, Clock::now()),
                                /*completed=*/true});

  result.group_size = group.size();
  {
    // History-dependent phases serialize on mu_: selection scoring reads
    // the seen-maps history, and the recommendation ranking must see the
    // history updated by this step's displayed maps. Parallelism inside
    // the step (phase scans, recommendation fan-out) is unaffected — pool
    // workers never touch mu_.
    //
    // Strong exception guarantee: everything below computes on copies
    // (`updated`, `result`) and commits to seen_/explored_ only in the
    // final else-branch. A throw from the pipeline, the builder, or an
    // injected fault unwinds past the commit and leaves the history
    // exactly as it was before the step.
    MutexLock lock(mu_);
    StepPhase display_cut = StepPhase::kNone;
    RmGeneratorStats display_stats;
    StepTimings display_timings;
    const double display_start_ms = MsBetween(start, Clock::now());
    result.maps = pipeline_.SelectForDisplay(group, seen_, &display_stats,
                                             &display_timings, stop,
                                             &display_cut);
    if (display_cut != StepPhase::kNone) cut(display_cut);

    // Trace the display pipeline: its pruning decisions and its phase
    // spans. A gmm-selection span exists only when the configured mode
    // diversifies at all, and completed only when nothing cut the display:
    // a cut in generation skips GMM too.
    result.trace.display = PruningTraceFrom(display_stats);
    result.trace.spans.push_back(
        {StepPhase::kRmGeneration, display_start_ms,
         display_timings.rm_generation_ms,
         display_cut != StepPhase::kRmGeneration});
    if (config_.selection != SelectionMode::kUtilityOnly) {
      result.trace.spans.push_back(
          {StepPhase::kGmmSelection,
           display_start_ms + display_timings.rm_generation_ms,
           display_timings.gmm_selection_ms,
           display_cut == StepPhase::kNone});
    }

    if (stop.cancelled()) {
      // Explicit cancellation abandons the step: nothing is displayed, so
      // nothing enters the history (unlike deadline expiry, where the
      // best-effort maps ARE shown to the user and must be remembered).
      result.maps.clear();
      result.cancelled = true;
      result.degraded = true;
    } else {
      // The user sees these maps now; recommendations are ranked against
      // the updated history, and later steps' global peculiarity refers to
      // them. `updated` is the tentative post-step history.
      SeenMapsTracker updated = seen_;
      for (const ScoredRatingMap& m : result.maps) updated.Record(m.map);
      // Revisits must not duplicate history entries: TopRecommendations
      // scans `explored_` per candidate, so duplicates degrade it to
      // O(|candidates| * |steps|) and skew nothing else.
      const bool record_selection =
          std::find(explored_.begin(), explored_.end(), selection) ==
          explored_.end();

      if (options.with_recommendations) {
        if (stop.ShouldStop()) {
          // First rung of the degradation ladder: the maps are worth
          // showing late, the recommendations are not.
          cut(StepPhase::kRecommendations);
          result.trace.spans.push_back({StepPhase::kRecommendations,
                                        MsBetween(start, Clock::now()), 0.0,
                                        /*completed=*/false});
        } else {
          Clock::time_point reco_start = Clock::now();
          bool reco_truncated = false;
          RmGeneratorStats reco_stats;
          result.recommendations = builder_.TopRecommendations(
              selection, updated, explored_, &reco_stats, stop,
              &reco_truncated);
          if (reco_truncated) cut(StepPhase::kRecommendations);
          result.trace.recommendations = PruningTraceFrom(reco_stats);
          result.trace.spans.push_back({StepPhase::kRecommendations,
                                        MsBetween(start, reco_start),
                                        MsBetween(reco_start, Clock::now()),
                                        !reco_truncated});
        }
      }

      if (stop.cancelled()) {
        // Cancellation landed during the recommendation fan-out: the step
        // is abandoned as a whole, commit nothing.
        result.maps.clear();
        result.recommendations.clear();
        result.cancelled = true;
        result.degraded = true;
      } else {
        // Commit point: the step succeeded (possibly degraded), so its
        // displayed maps become history.
        seen_ = std::move(updated);
        if (record_selection) explored_.push_back(selection);
      }
    }
  }

  result.elapsed_ms = MsBetween(start, Clock::now());
  if (!result.cancelled) result.digest = ComputeStepDigest(*db_, result);
  finalize();
  return result;
}

MetricsSnapshot SdeEngine::MetricsSnapshot() const {
  return MetricsRegistry::Global().Snapshot();
}

SeenMapsTracker SdeEngine::seen() const {
  MutexLock lock(mu_);
  return seen_;
}

std::vector<GroupSelection> SdeEngine::explored_selections() const {
  MutexLock lock(mu_);
  return explored_;
}

void SdeEngine::ResetHistory() {
  MutexLock lock(mu_);
  seen_ = SeenMapsTracker(db_->num_dimensions());
  explored_.clear();
}

}  // namespace subdex
