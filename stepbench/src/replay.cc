#include "replay.h"

#include <algorithm>
#include <chrono>

#include "engine/step_digest.h"
#include "storage/query_parser.h"
#include "subjective/operation.h"

namespace stepbench {

using namespace subdex;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

size_t Survivors(const RmGeneratorStats& s) {
  const size_t killed = s.pruned_ci + s.pruned_mab;
  return killed >= s.num_candidates ? 0 : s.num_candidates - killed;
}

std::string CompareTrace(const char* what, const StepTrace::PruningTrace& t,
                         const RmGeneratorStats& s) {
  if (t.candidates != s.num_candidates || t.pruned_ci != s.pruned_ci ||
      t.pruned_mab != s.pruned_mab || t.survivors != Survivors(s) ||
      t.record_updates != s.record_updates) {
    return std::string("replayed ") + what +
           " pruning counts differ from the step trace";
  }
  return "";
}

}  // namespace

void LayerTotals::Merge(const LayerTotals& o) {
  steps += o.steps;
  enumerate_ms += o.enumerate_ms;
  materialize_ms += o.materialize_ms;
  wasted_materialize_ms += o.wasted_materialize_ms;
  candidates_materialized += o.candidates_materialized;
  candidates_kept += o.candidates_kept;
  generate_ms += o.generate_ms;
  gmm_ms += o.gmm_ms;
  record_updates += o.record_updates;
  maps_considered += o.maps_considered;
  pruned_ci += o.pruned_ci;
  pruned_mab += o.pruned_mab;
  survivors += o.survivors;
  display_ms += o.display_ms;
  fanout_ms += o.fanout_ms;
  fanout_candidates += o.fanout_candidates;
  cache_hits += o.cache_hits;
  cache_lookups += o.cache_lookups;
  digest_us += o.digest_us;
  attributed_ms += o.attributed_ms;
  engine_elapsed_ms += o.engine_elapsed_ms;
  journal_append_ms.insert(journal_append_ms.end(),
                           o.journal_append_ms.begin(),
                           o.journal_append_ms.end());
  codec_us += o.codec_us;
}

double LayerTotals::AttributedShare() const {
  if (engine_elapsed_ms <= 0.0) return 0.0;
  return attributed_ms / engine_elapsed_ms;
}

StepReplayer::StepReplayer(const SubjectiveDatabase* db,
                           const EngineConfig& config,
                           const JournalConfig& journal,
                           const std::string& journal_id)
    : db_(db),
      config_(config),
      pipeline_(&config_),
      journal_config_(journal),
      seen_(db->num_dimensions()) {
  Result<std::unique_ptr<SessionJournal>> started =
      SessionJournal::Start(journal_config_, journal_id);
  if (started.ok()) journal_ = std::move(started).value();
  StartSession();
}

void StepReplayer::StartSession() {
  cache_ =
      std::make_unique<RatingGroupCache>(db_, config_.group_cache_capacity);
  seen_ = SeenMapsTracker(db_->num_dimensions());
  explored_.clear();
}

std::string StepReplayer::Replay(const GroupSelection& selection,
                                 bool with_recommendations, uint64_t digest,
                                 double engine_elapsed_ms,
                                 const StepTrace* trace) {
  LayerTotals& t = totals_;
  const RatingGroupCache::Stats cache_before = cache_->stats();

  Clock::time_point start = Clock::now();
  RatingGroup group = cache_->Get(selection);
  const double own_materialize_ms = MsSince(start);
  t.materialize_ms += own_materialize_ms;

  StepResult replayed;
  replayed.selection = selection;
  replayed.group_size = group.size();
  RmGeneratorStats display_stats;
  StepTimings display_timings;
  start = Clock::now();
  replayed.maps = pipeline_.SelectForDisplay(group, seen_, &display_stats,
                                             &display_timings);
  const double display_ms = MsSince(start);
  t.display_ms += display_ms;
  double fanout_ms = 0.0;
  t.generate_ms += display_timings.rm_generation_ms;
  t.gmm_ms += display_timings.gmm_selection_ms;

  SeenMapsTracker updated = seen_;
  for (const ScoredRatingMap& m : replayed.maps) updated.Record(m.map);

  RmGeneratorStats reco_stats;
  if (with_recommendations) {
    const Clock::time_point fanout_start = Clock::now();
    std::vector<Operation> candidates =
        EnumerateCandidateOperations(*db_, selection, config_.operations);
    std::erase_if(candidates, [&](const Operation& op) {
      return std::find(explored_.begin(), explored_.end(), op.target) !=
             explored_.end();
    });
    if (config_.max_operation_evaluations > 0 &&
        candidates.size() > config_.max_operation_evaluations) {
      std::stable_sort(candidates.begin(), candidates.end(),
                       [](const Operation& a, const Operation& b) {
                         return a.num_edits < b.num_edits;
                       });
      candidates.resize(config_.max_operation_evaluations);
    }
    t.enumerate_ms += MsSince(fanout_start);
    t.fanout_candidates += candidates.size();

    std::vector<Recommendation> recs;
    for (const Operation& op : candidates) {
      start = Clock::now();
      RatingGroup target = cache_->Get(op.target);
      const double materialize_ms = MsSince(start);
      t.materialize_ms += materialize_ms;
      ++t.candidates_materialized;
      if (target.size() < config_.min_group_size) {
        t.wasted_materialize_ms += materialize_ms;
        continue;
      }
      ++t.candidates_kept;
      StepTimings timings;
      std::vector<ScoredRatingMap> maps =
          pipeline_.SelectForDisplay(target, updated, &reco_stats, &timings);
      t.generate_ms += timings.rm_generation_ms;
      t.gmm_ms += timings.gmm_selection_ms;
      if (maps.empty()) continue;
      Recommendation rec;
      rec.operation = op;
      rec.maps = std::move(maps);
      rec.utility = RmPipeline::OperationUtility(rec.maps);
      rec.group_size = target.size();
      recs.push_back(std::move(rec));
    }
    std::stable_sort(recs.begin(), recs.end(),
                     [](const Recommendation& a, const Recommendation& b) {
                       return a.utility > b.utility;
                     });
    if (recs.size() > config_.o) recs.resize(config_.o);
    replayed.recommendations = std::move(recs);
    fanout_ms = MsSince(fanout_start);
    t.fanout_ms += fanout_ms;
  }

  start = Clock::now();
  const uint64_t replayed_digest = ComputeStepDigest(*db_, replayed);
  t.digest_us += MsSince(start) * 1000.0;
  if (replayed_digest != digest) {
    return "replayed step digest " + DigestToHex(replayed_digest) +
           " != the step's " + DigestToHex(digest);
  }

  RmGeneratorStats all = display_stats;
  all.Merge(reco_stats);
  t.record_updates += all.record_updates;
  t.maps_considered += all.num_candidates;
  t.pruned_ci += all.pruned_ci;
  t.pruned_mab += all.pruned_mab;
  t.survivors += Survivors(display_stats) + Survivors(reco_stats);
  const RatingGroupCache::Stats cache_after = cache_->stats();
  const size_t hits = cache_after.hits - cache_before.hits;
  const size_t lookups = hits + (cache_after.misses - cache_before.misses) +
                         (cache_after.coalesced - cache_before.coalesced);
  t.cache_hits += hits;
  t.cache_lookups += lookups;
  t.attributed_ms += own_materialize_ms + display_ms + fanout_ms;
  t.engine_elapsed_ms += engine_elapsed_ms;
  ++t.steps;
  if (trace != nullptr) {
    if (std::string err = CompareTrace("display", trace->display,
                                       display_stats);
        !err.empty()) {
      return err;
    }
    if (with_recommendations) {
      if (std::string err = CompareTrace("fan-out", trace->recommendations,
                                         reco_stats);
          !err.empty()) {
        return err;
      }
    }
    if (trace->cache.hits != hits ||
        trace->cache.hits + trace->cache.misses + trace->cache.coalesced !=
            lookups) {
      return "replayed group-cache hits differ from the step trace";
    }
  }

  seen_ = std::move(updated);
  if (std::find(explored_.begin(), explored_.end(), selection) ==
      explored_.end()) {
    explored_.push_back(selection);
  }

  // The wire path of the step: the query codec, then the journal append.
  start = Clock::now();
  const std::string reviewers =
      PredicateToQuery(db_->reviewers(), selection.reviewer_pred);
  const std::string items = PredicateToQuery(db_->items(), selection.item_pred);
  Result<Predicate> parsed_reviewers =
      ParsePredicateReadOnly(db_->reviewers(), reviewers);
  Result<Predicate> parsed_items = ParsePredicateReadOnly(db_->items(), items);
  t.codec_us += MsSince(start) * 1000.0;
  if (!parsed_reviewers.ok() || !parsed_items.ok() ||
      !(parsed_reviewers.value() == selection.reviewer_pred) ||
      !(parsed_items.value() == selection.item_pred)) {
    return "query codec does not round-trip the selection";
  }
  if (journal_ == nullptr) return "scratch journal could not be created";
  const JsonValue record =
      MakeStepRecord(reviewers, items, with_recommendations, false, digest);
  start = Clock::now();
  Status appended = journal_->Append(record);
  t.journal_append_ms.push_back(MsSince(start));
  if (!appended.ok()) return "scratch journal append: " + appended.message();
  return "";
}

}  // namespace stepbench
