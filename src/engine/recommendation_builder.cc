#include "engine/recommendation_builder.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace subdex {

namespace {

struct RecoMetrics {
  Counter& fanouts;
  Counter& candidates;
  Counter& evaluated;
  Counter& skipped_small;
  Counter& returned;
  Counter& truncated;
  Histogram& fanout_size;
  Histogram& utility_spread;

  static RecoMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static RecoMetrics m{
        reg.GetCounter("subdex_reco_fanouts_total",
                       "TopRecommendations calls (one per recommending "
                       "step)"),
        reg.GetCounter("subdex_reco_candidates_total",
                       "Candidate operations enumerated (after explored-"
                       "selection filtering and the evaluation cap)"),
        reg.GetCounter("subdex_reco_evaluated_total",
                       "Candidate operations whose target group was "
                       "materialized and scored"),
        reg.GetCounter("subdex_reco_skipped_small_total",
                       "Candidates discarded for falling below "
                       "min_group_size"),
        reg.GetCounter("subdex_reco_returned_total",
                       "Recommendations returned to the user (<= o per "
                       "step)"),
        reg.GetCounter("subdex_reco_truncated_total",
                       "Fan-outs cut short by the step budget"),
        reg.GetHistogram("subdex_reco_fanout_size",
                         MetricsRegistry::CountBuckets(),
                         "Candidate operations per recommending step"),
        reg.GetHistogram("subdex_reco_utility_spread",
                         MetricsRegistry::UnitBuckets(),
                         "Operation-utility spread (best minus worst) of "
                         "each returned top-o list"),
    };
    return m;
  }
};

}  // namespace

std::vector<Recommendation> RecommendationBuilder::TopRecommendations(
    const GroupSelection& current, const SeenMapsTracker& seen,
    const std::vector<GroupSelection>& explored, RmGeneratorStats* stats,
    const StopToken& stop, bool* truncated) const {
  std::vector<Operation> candidates =
      EnumerateCandidateOperations(*db_, current, config_->operations);
  if (!explored.empty()) {
    std::erase_if(candidates, [&](const Operation& op) {
      for (const GroupSelection& sel : explored) {
        if (op.target == sel) return true;
      }
      return false;
    });
  }

  if (config_->max_operation_evaluations > 0 &&
      candidates.size() > config_->max_operation_evaluations) {
    // Evaluation budget (paper cost model, Fig. 11b): keep single-edit
    // operations first — the "small adjustment" candidates users expect —
    // then composites, in enumeration order.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Operation& a, const Operation& b) {
                       return a.num_edits < b.num_edits;
                     });
    candidates.resize(config_->max_operation_evaluations);
  }

  RecoMetrics& metrics = RecoMetrics::Get();
  metrics.fanouts.Increment();
  metrics.candidates.Increment(candidates.size());
  metrics.fanout_size.Observe(static_cast<double>(candidates.size()));

  std::vector<std::optional<Recommendation>> results(candidates.size());
  std::vector<RmGeneratorStats> per_candidate_stats(candidates.size());
  // Set when the budget demonstrably skipped or shortened candidate work;
  // atomic because pool workers evaluate candidates concurrently.
  std::atomic<bool> cut{false};

  auto evaluate = [&](size_t i) {
    if (stop.ShouldStop()) {
      cut.store(true, std::memory_order_relaxed);
      return;
    }
    metrics.evaluated.Increment();
    RatingGroup group = cache_ != nullptr
                            ? cache_->Get(candidates[i].target)
                            : RatingGroup::Materialize(*db_, candidates[i].target);
    if (group.size() < config_->min_group_size) {
      metrics.skipped_small.Increment();
      return;
    }
    // The budget flows into the per-candidate pipeline too, so one slow
    // candidate cannot blow the deadline; its best-so-far maps still yield
    // a comparable (if approximate) operation utility.
    StepPhase candidate_phase = StepPhase::kNone;
    std::vector<ScoredRatingMap> maps = pipeline_->SelectForDisplay(
        group, seen, &per_candidate_stats[i], nullptr, stop, &candidate_phase);
    if (candidate_phase != StepPhase::kNone) {
      cut.store(true, std::memory_order_relaxed);
    }
    if (maps.empty()) return;
    // A recommendation previews at most the k display slots of Problem 1.
    SUBDEX_DCHECK_LE(maps.size(), config_->k);
    Recommendation rec;
    rec.operation = candidates[i];
    rec.maps = std::move(maps);
    rec.utility = RmPipeline::OperationUtility(rec.maps);
    rec.group_size = group.size();
    results[i] = std::move(rec);
  };

  // The engine-owned pool outlives every step: no per-call thread churn.
  // The stop token also reaches the pool, which stops scheduling whole
  // candidates once the budget is gone (their result slots stay empty).
  if (pool_ != nullptr && config_->parallel_recommendations &&
      candidates.size() > 1) {
    if (!pool_->ParallelFor(candidates.size(), evaluate, stop)) {
      cut.store(true, std::memory_order_relaxed);
    }
  } else {
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (stop.ShouldStop()) {
        cut.store(true, std::memory_order_relaxed);
        break;
      }
      evaluate(i);
    }
  }
  if (cut.load(std::memory_order_relaxed)) {
    metrics.truncated.Increment();
    if (truncated != nullptr) *truncated = true;
  }

  if (stats != nullptr) {
    for (const RmGeneratorStats& s : per_candidate_stats) stats->Merge(s);
  }

  std::vector<size_t> ranked;
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].has_value()) ranked.push_back(i);
  }
  // Candidates are enumerated deterministically; stable sort keeps the
  // outcome reproducible under utility ties.
  std::stable_sort(ranked.begin(), ranked.end(), [&](size_t a, size_t b) {
    return results[a]->utility > results[b]->utility;
  });
  if (ranked.size() > config_->o) ranked.resize(config_->o);
  // The returned list owns exactly its top-o entries: the step result, the
  // session path and the server keep it, so no capacity is left over for
  // the other evaluated candidates.
  std::vector<Recommendation> recs;
  recs.reserve(ranked.size());
  for (size_t i : ranked) recs.push_back(std::move(*results[i]));
  // Problem 2's contract: the top-o list is ordered by operation utility.
  for (size_t i = 1; i < recs.size(); ++i) {
    SUBDEX_DCHECK_GE(recs[i - 1].utility, recs[i].utility);
  }
  metrics.returned.Increment(recs.size());
  if (!recs.empty()) {
    // Spread of the returned list: near 0 means the next-step choices are
    // interchangeable, near k means the ranking is doing real work.
    metrics.utility_spread.Observe(recs.front().utility -
                                   recs.back().utility);
  }
  return recs;
}

}  // namespace subdex
