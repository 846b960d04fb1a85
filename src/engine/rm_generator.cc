#include "engine/rm_generator.h"

#include <algorithm>
#include <memory>

#include "pruning/ci_pruner.h"
#include "pruning/mab_pruner.h"
#include "pruning/multi_aggregate_scan.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace subdex {

namespace {

struct RmGenMetrics {
  Counter& runs;
  Counter& candidates;
  Counter& pruned_ci;
  Counter& pruned_mab;
  Counter& mab_accepted;
  Counter& survivors;
  Counter& record_updates;
  Counter& phases;
  Counter& truncated;

  static RmGenMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static RmGenMetrics m{
        reg.GetCounter("subdex_rmgen_runs_total",
                       "RM-Generator executions (display pipeline + one "
                       "per evaluated candidate operation)"),
        reg.GetCounter("subdex_rmgen_candidates_total",
                       "Candidate rating maps entering Algorithm 1"),
        reg.GetCounter("subdex_rmgen_pruned_ci_total",
                       "Candidates killed by confidence-interval pruning"),
        reg.GetCounter("subdex_rmgen_pruned_mab_total",
                       "Candidates killed by SAR rejection"),
        reg.GetCounter("subdex_rmgen_mab_accepted_total",
                       "Candidates accepted early by SAR"),
        reg.GetCounter("subdex_rmgen_survivors_total",
                       "Candidates surviving to exact scoring"),
        reg.GetCounter("subdex_rmgen_record_updates_total",
                       "(record, dimension) histogram updates — the "
                       "dominant generation cost"),
        reg.GetCounter("subdex_rmgen_phases_total",
                       "Phases of the phased execution framework run"),
        reg.GetCounter("subdex_rmgen_truncated_total",
                       "Generate calls cut short at a phase boundary by "
                       "the step budget"),
    };
    return m;
  }
};

}  // namespace

const char* PruningSchemeName(PruningScheme scheme) {
  switch (scheme) {
    case PruningScheme::kNone:
      return "no-pruning";
    case PruningScheme::kConfidenceInterval:
      return "ci-pruning";
    case PruningScheme::kMab:
      return "mab-pruning";
    case PruningScheme::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

const char* SelectionModeName(SelectionMode mode) {
  switch (mode) {
    case SelectionMode::kUtilityAndDiversity:
      return "utility+diversity";
    case SelectionMode::kUtilityOnly:
      return "utility-only";
    case SelectionMode::kDiversityOnly:
      return "diversity-only";
  }
  return "unknown";
}

void RmGeneratorStats::Merge(const RmGeneratorStats& other) {
  num_candidates += other.num_candidates;
  pruned_ci += other.pruned_ci;
  pruned_mab += other.pruned_mab;
  mab_accepted += other.mab_accepted;
  record_updates += other.record_updates;
  phases_run += other.phases_run;
}

namespace {

struct Candidate {
  RatingMapKey key;
  size_t scan_index = 0;
  bool pruned = false;
  bool accepted = false;
  InterestingnessScores scores;
  CandidateIntervals intervals;
  double dw_mean = 0.0;
};

// Recomputes the still-active criteria of `cand` from its scan's counts,
// read in place, and refreshes the confidence intervals. Under the default
// max-aggregation, criteria deactivated by interval domination (Algorithm
// 3) are skipped — they can no longer define the utility. Other
// aggregations keep a single interval around the aggregated utility.
void EstimateCandidate(Candidate* cand, const RatingMapCounts& counts,
                       const std::vector<RatingDistribution>& seen_dists,
                       const UtilityConfig& utility_config, double eps) {
  auto clip = [](double x) { return std::min(1.0, std::max(0.0, x)); };
  if (utility_config.aggregation == UtilityAggregation::kMax) {
    // Max-aggregation addresses the four criterion slots directly; guard
    // the assumption so a future change of the criteria container (e.g.
    // to a dynamically sized one) fails loudly here, not as a wild read.
    SUBDEX_CHECK_MSG(cand->intervals.criteria.size() >= 4,
                     "kMax aggregation requires 4 criterion intervals");
    auto& crit = cand->intervals.criteria;
    if (crit[0].active) {
      cand->scores.conciseness = Conciseness(counts, utility_config);
      crit[0].lb = clip(cand->scores.conciseness - eps);
      crit[0].ub = clip(cand->scores.conciseness + eps);
    }
    if (crit[1].active) {
      cand->scores.agreement = Agreement(counts, utility_config);
      crit[1].lb = clip(cand->scores.agreement - eps);
      crit[1].ub = clip(cand->scores.agreement + eps);
    }
    if (crit[2].active) {
      cand->scores.self_peculiarity = SelfPeculiarity(counts, utility_config);
      crit[2].lb = clip(cand->scores.self_peculiarity - eps);
      crit[2].ub = clip(cand->scores.self_peculiarity + eps);
    }
    if (crit[3].active) {
      cand->scores.global_peculiarity =
          GlobalPeculiarity(counts, seen_dists, utility_config);
      crit[3].lb = clip(cand->scores.global_peculiarity - eps);
      crit[3].ub = clip(cand->scores.global_peculiarity + eps);
    }
    ComputeEnvelope(&cand->intervals);
  } else {
    cand->scores = ComputeScores(counts, seen_dists, utility_config);
    double u = Utility(cand->scores, utility_config);
    // Collapse to one interval on the aggregated utility: domination-based
    // criterion deactivation is only sound for the max aggregation.
    cand->intervals.criteria[0] = {clip(u - eps), clip(u + eps), true};
    for (size_t c = 1; c < cand->intervals.criteria.size(); ++c) {
      cand->intervals.criteria[c].active = false;
    }
    cand->intervals.lb = cand->intervals.weight * clip(u - eps);
    cand->intervals.ub = cand->intervals.weight * clip(u + eps);
  }
  cand->dw_mean =
      cand->intervals.weight * Utility(cand->scores, utility_config);
}

}  // namespace

std::vector<ScoredRatingMap> RmGenerator::Generate(
    const RatingGroup& group, const SeenMapsTracker& seen, size_t k_prime,
    RmGeneratorStats* stats, const StopToken& stop, bool* truncated) const {
  RmGeneratorStats local_stats;
  RmGeneratorStats* st = stats != nullptr ? stats : &local_stats;
  if (group.empty() || k_prime == 0) return {};
  // `st` may be a caller-owned accumulator spanning many Generate calls;
  // snapshot it so the process metrics receive only this run's deltas.
  const RmGeneratorStats entry_stats = *st;
  const SubjectiveDatabase& db = group.db();

  // Algorithm 1, line 1: all possible rating maps of the group.
  std::vector<RatingMapKey> keys = AllRatingMapKeys(db, group.selection());
  if (keys.empty()) return {};

  // Line 2: dimension weights from the displayed-maps history.
  std::vector<double> dim_weight(db.num_dimensions());
  for (size_t d = 0; d < db.num_dimensions(); ++d) {
    dim_weight[d] =
        config_->use_dimension_weights ? seen.DimensionWeight(d) : 1.0;
  }

  // Phases consume the group in random order (sampling without
  // replacement), which is what the Hoeffding-Serfling intervals assume.
  std::vector<RecordId> records = group.records();
  Rng rng(config_->seed);
  rng.Shuffle(&records);
  RatingGroup shuffled(&db, group.selection(), std::move(records));

  // Shared scans: one per (side, grouping attribute).
  std::vector<std::unique_ptr<MultiAggregateScan>> scans;
  std::vector<Candidate> cands;
  cands.reserve(keys.size());
  for (const RatingMapKey& key : keys) {
    size_t scan_index = scans.size();
    if (config_->share_scans) {
      for (size_t s = 0; s < scans.size(); ++s) {
        if (scans[s]->side() == key.side &&
            scans[s]->attribute() == key.attribute) {
          scan_index = s;
          break;
        }
      }
    }
    if (scan_index == scans.size()) {
      scans.push_back(std::make_unique<MultiAggregateScan>(
          &shuffled, key.side, key.attribute));
      if (!config_->share_scans) {
        // Sharing ablation: one scan per candidate, aggregating only its
        // own dimension (each candidate re-reads the grouping codes).
        for (size_t d = 0; d < db.num_dimensions(); ++d) {
          if (d != key.dimension) scans.back()->DeactivateDimension(d);
        }
      }
    }
    Candidate cand;
    cand.key = key;
    cand.scan_index = scan_index;
    // Start from the vacuous envelope on every criterion slot: estimation
    // (and the max-aggregation fast path) relies on all 4 being present
    // and active.
    cand.intervals.criteria.fill(CriterionInterval{});
    cand.intervals.weight = dim_weight[key.dimension];
    cands.push_back(std::move(cand));
  }
  st->num_candidates += cands.size();

  const bool use_ci = config_->pruning == PruningScheme::kConfidenceInterval ||
                      config_->pruning == PruningScheme::kHybrid;
  const bool use_mab = config_->pruning == PruningScheme::kMab ||
                       config_->pruning == PruningScheme::kHybrid;
  const size_t num_phases = std::max<size_t>(1, config_->num_phases);
  const size_t total = shuffled.size();
  // SAR decides (at most) one arm per step; spreading the arm budget across
  // phases decides every arm by the end of the framework.
  const size_t sar_steps_per_phase =
      use_mab ? (cands.size() + num_phases - 1) / num_phases : 0;
  size_t accepted_count = 0;
  // Estimation runs serially, so one buffer serves every candidate's view.
  std::vector<SubgroupCounts> subgroup_storage;

  auto prune_candidate = [&](Candidate* cand) {
    cand->pruned = true;
    scans[cand->scan_index]->DeactivateDimension(cand->key.dimension);
  };

  for (size_t phase = 0; phase < num_phases; ++phase) {
    // Anytime cut, at phase boundaries only: a phase's scan updates must
    // all advance through the same records (estimation aligns each
    // candidate's counts with its scan's processed count), so the budget
    // is never allowed to stop individual scans mid-phase. Phase 0 always
    // runs: a map over zero records would be meaningless, while 1/n of the
    // group is a bounded, honest best-effort sample.
    if (phase > 0 && stop.ShouldStop()) {
      if (truncated != nullptr) *truncated = true;
      RmGenMetrics::Get().truncated.Increment();
      break;
    }
    size_t begin = total * phase / num_phases;
    size_t end = total * (phase + 1) / num_phases;
    if (pool_ != nullptr && scans.size() > 1) {
      // Scans own disjoint histograms, so the phase update is
      // embarrassingly parallel; the per-scan work counts are reduced in
      // index order to keep stats deterministic. No stop token here — see
      // the phase-boundary comment above.
      std::vector<size_t> updates(scans.size(), 0);
      pool_->ParallelFor(scans.size(), [&](size_t s) {
        updates[s] = scans[s]->Update(begin, end);
      });
      for (size_t u : updates) st->record_updates += u;
    } else {
      for (auto& scan : scans) {
        st->record_updates += scan->Update(begin, end);
      }
    }
    ++st->phases_run;
    if (config_->pruning == PruningScheme::kNone) continue;
    if (phase + 1 == num_phases) break;  // full data processed; no estimate needed

    // Refresh estimates of all undecided candidates, reading each one's
    // counts in place: no RatingMap is built until exact scoring.
    for (Candidate& cand : cands) {
      if (cand.pruned) continue;
      const MultiAggregateScan& scan = *scans[cand.scan_index];
      size_t processed = scan.processed(cand.key.dimension);
      if (processed == 0) continue;
      // Sampling without replacement: a scan can never have consumed more
      // records than the group holds (the Hoeffding-Serfling bound is
      // meaningless past that point).
      SUBDEX_DCHECK_LE(processed, total);
      double eps =
          HoeffdingSerflingEpsilon(processed, total, config_->ci_delta);
      EstimateCandidate(&cand,
                        scan.Counts(cand.key.dimension, &subgroup_storage),
                        seen.seen_distributions(), config_->utility, eps);
    }

    if (use_ci) {
      std::vector<size_t> live;
      std::vector<CandidateIntervals> intervals;
      for (size_t i = 0; i < cands.size(); ++i) {
        if (cands[i].pruned) continue;
        live.push_back(i);
        intervals.push_back(cands[i].intervals);
      }
      std::vector<bool> prune = CiPrune(intervals, k_prime);
      for (size_t j = 0; j < live.size(); ++j) {
        Candidate& cand = cands[live[j]];
        if (prune[j] && !cand.accepted) {
          prune_candidate(&cand);
          ++st->pruned_ci;
        }
      }
    }

    if (use_mab) {
      for (size_t step = 0; step < sar_steps_per_phase; ++step) {
        std::vector<size_t> open;
        std::vector<double> means;
        for (size_t i = 0; i < cands.size(); ++i) {
          if (cands[i].pruned || cands[i].accepted) continue;
          open.push_back(i);
          means.push_back(cands[i].dw_mean);
        }
        size_t k_remaining =
            k_prime > accepted_count ? k_prime - accepted_count : 0;
        SarDecision decision = SarStep(means, k_remaining);
        if (decision.action == SarAction::kNone) break;
        // MAB arm accounting: SAR must decide an open arm, and accepts can
        // never exceed the k' display slots the arms compete for.
        SUBDEX_DCHECK_LT(decision.index, open.size());
        Candidate& cand = cands[open[decision.index]];
        if (decision.action == SarAction::kAcceptTop) {
          cand.accepted = true;
          ++accepted_count;
          SUBDEX_DCHECK_LE(accepted_count, k_prime);
          ++st->mab_accepted;
        } else {
          prune_candidate(&cand);
          ++st->pruned_mab;
        }
      }
    }
  }

  // Survivors were updated through every phase that ran, so their
  // snapshots cover the whole group — or, when the budget truncated the
  // phase loop, the processed prefix (best-so-far anytime answer). Score
  // the snapshots and keep the top k_prime by DW utility. This pass is
  // histogram-bound (independent of |group|), so it is not budgeted: it is
  // the step that turns work already done into a returnable result.
  std::vector<size_t> live;
  for (size_t i = 0; i < cands.size(); ++i) {
    if (!cands[i].pruned) live.push_back(i);
  }
  std::vector<ScoredRatingMap> out(live.size());
  auto score_exact = [&](size_t j) {
    const Candidate& cand = cands[live[j]];
    ScoredRatingMap scored;
    scored.map = scans[cand.scan_index]->SnapshotMap(cand.key.dimension);
    scored.scores = ComputeScores(scored.map, seen.seen_distributions(),
                                  config_->utility);
    scored.utility = Utility(scored.scores, config_->utility);
    scored.dw_utility = dim_weight[cand.key.dimension] * scored.utility;
    out[j] = std::move(scored);
  };
  if (pool_ != nullptr && live.size() > 1) {
    // Survivors only read their scan (SnapshotMap is const) and write
    // their own slot, so exact scoring parallelizes without reordering.
    pool_->ParallelFor(live.size(), score_exact);
  } else {
    for (size_t j = 0; j < live.size(); ++j) score_exact(j);
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredRatingMap& a, const ScoredRatingMap& b) {
              if (a.dw_utility != b.dw_utility) {
                return a.dw_utility > b.dw_utility;
              }
              const RatingMapKey& ka = a.map.key();
              const RatingMapKey& kb = b.map.key();
              if (ka.side != kb.side) return ka.side == Side::kReviewer;
              if (ka.attribute != kb.attribute) {
                return ka.attribute < kb.attribute;
              }
              return ka.dimension < kb.dimension;
            });
  if (out.size() > k_prime) out.resize(k_prime);

  RmGenMetrics& metrics = RmGenMetrics::Get();
  metrics.runs.Increment();
  metrics.candidates.Increment(st->num_candidates - entry_stats.num_candidates);
  metrics.pruned_ci.Increment(st->pruned_ci - entry_stats.pruned_ci);
  metrics.pruned_mab.Increment(st->pruned_mab - entry_stats.pruned_mab);
  metrics.mab_accepted.Increment(st->mab_accepted - entry_stats.mab_accepted);
  metrics.record_updates.Increment(st->record_updates -
                                   entry_stats.record_updates);
  metrics.phases.Increment(st->phases_run - entry_stats.phases_run);
  metrics.survivors.Increment(live.size());
  return out;
}

}  // namespace subdex
