#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/interestingness.h"
#include "pruning/ci_pruner.h"
#include "pruning/mab_pruner.h"
#include "pruning/multi_aggregate_scan.h"
#include "tests/test_support.h"
#include "util/random.h"

namespace subdex {
namespace {

using testing_support::MakeDbWithNulls;
using testing_support::MakeRandomDb;

// --------------------------------------------------- MultiAggregateScan --

// Every (side, attribute) a scan can group by.
std::vector<std::pair<Side, size_t>> GroupingAttributes(
    const SubjectiveDatabase& db) {
  std::vector<std::pair<Side, size_t>> out;
  for (Side side : {Side::kReviewer, Side::kItem}) {
    const Table& table = db.table(side);
    for (size_t a = 0; a < table.num_attributes(); ++a) {
      if (table.schema().attribute(a).type != AttributeType::kNumeric) {
        out.push_back({side, a});
      }
    }
  }
  return out;
}

// The whole database as one group, in a shuffled record order (the
// generator scans shuffled groups).
RatingGroup ShuffledAll(const SubjectiveDatabase& db, uint64_t seed) {
  std::vector<RecordId> records =
      RatingGroup::Materialize(db, GroupSelection{}).records();
  Rng rng(seed);
  rng.Shuffle(&records);
  return RatingGroup(&db, GroupSelection{}, std::move(records));
}

// RatingMap::Build over the first `n` records of `group`.
RatingMap BuildOverPrefix(const RatingGroup& group, size_t n,
                          const RatingMapKey& key) {
  std::vector<RecordId> prefix(group.records().begin(),
                               group.records().begin() +
                                   static_cast<std::ptrdiff_t>(n));
  return RatingMap::Build(
      RatingGroup(&group.db(), GroupSelection{}, std::move(prefix)), key);
}

void ExpectSameCounts(const RatingDistribution& a, const RatingDistribution& b) {
  ASSERT_EQ(a.scale(), b.scale());
  EXPECT_EQ(a.total(), b.total());
  for (int s = 1; s <= a.scale(); ++s) EXPECT_EQ(a.count(s), b.count(s));
}

// Slices of uneven length (one empty) over a group with null categorical
// cells and empty multi-valued cells, with a dimension deactivated between
// slices: at every boundary, each dimension's snapshot is exactly the map
// Build makes from that dimension's processed prefix — same subgroups in
// the same order, same per-score counts, same overall counts.
TEST(MultiAggregateScanTest, MatchesDirectBuildPerDimension) {
  auto db = MakeDbWithNulls(40, 16, 700, 3, 61);
  RatingGroup group = ShuffledAll(*db, 3);
  const std::vector<size_t> cuts = {0, 7, 7, 150, 151, 420, group.size()};
  size_t null_subgroups = 0;
  for (auto [side, attribute] : GroupingAttributes(*db)) {
    MultiAggregateScan scan(&group, side, attribute);
    for (size_t c = 1; c < cuts.size(); ++c) {
      if (c == 3) scan.DeactivateDimension(1);
      scan.Update(cuts[c - 1], cuts[c]);
      for (size_t d = 0; d < db->num_dimensions(); ++d) {
        SCOPED_TRACE(testing::Message()
                     << SideName(side) << " attribute " << attribute
                     << " cut " << cuts[c] << " dim " << d);
        size_t n = scan.processed(d);
        EXPECT_EQ(n, d == 1 ? std::min(cuts[c], cuts[2]) : cuts[c]);
        RatingMap direct = BuildOverPrefix(group, n, {side, attribute, d});
        RatingMap shared = scan.SnapshotMap(d);
        EXPECT_EQ(shared.full_group_size(), group.size());
        ExpectSameCounts(shared.overall(), direct.overall());
        ASSERT_EQ(shared.num_subgroups(), direct.num_subgroups());
        for (size_t i = 0; i < shared.num_subgroups(); ++i) {
          const Subgroup& a = shared.subgroups()[i];
          const Subgroup& b = direct.subgroups()[i];
          EXPECT_EQ(a.value, b.value);
          ExpectSameCounts(a.dist, b.dist);
          if (a.value == kNullCode) ++null_subgroups;
        }
      }
    }
  }
  // The fixture exists to reach the null slot on both sides.
  EXPECT_GT(null_subgroups, 0u);
}

// The criteria the generator computes in place from a scan's counts equal
// the criteria of the map SnapshotMap builds, bit for bit, under both
// peculiarity measures and every aggregation, with a seen history.
TEST(MultiAggregateScanTest, InPlaceCriteriaEqualSnapshotScores) {
  auto db = MakeDbWithNulls(40, 16, 700, 3, 67);
  RatingGroup group = ShuffledAll(*db, 5);
  std::vector<RatingDistribution> seen = {
      RatingMap::Build(group, {Side::kItem, 0, 0}).overall(),
      RatingMap::Build(group, {Side::kReviewer, 1, 2}).overall()};
  seen[1].AddCount(5, 40);
  std::vector<UtilityConfig> configs;
  for (PeculiarityMeasure measure : {PeculiarityMeasure::kTotalVariation,
                                     PeculiarityMeasure::kKlDivergence}) {
    for (UtilityAggregation aggregation :
         {UtilityAggregation::kMax, UtilityAggregation::kAverage,
          UtilityAggregation::kSingleCriterion}) {
      UtilityConfig config;
      config.peculiarity_measure = measure;
      config.aggregation = aggregation;
      config.single = UtilityCriterion::kAgreement;
      config.database_size = db->num_records();
      configs.push_back(config);
    }
  }
  const std::vector<size_t> cuts = {0, 70, 71, 350, group.size()};
  std::vector<SubgroupCounts> storage;
  for (auto [side, attribute] : GroupingAttributes(*db)) {
    MultiAggregateScan scan(&group, side, attribute);
    for (size_t c = 1; c < cuts.size(); ++c) {
      if (c == 2) scan.DeactivateDimension(0);
      scan.Update(cuts[c - 1], cuts[c]);
      for (size_t d = 0; d < db->num_dimensions(); ++d) {
        RatingMap snapshot = scan.SnapshotMap(d);
        RatingMapCounts counts = scan.Counts(d, &storage);
        ASSERT_EQ(counts.subgroups.size(), snapshot.num_subgroups());
        for (size_t i = 0; i < counts.subgroups.size(); ++i) {
          EXPECT_EQ(counts.subgroups[i].value, snapshot.subgroups()[i].value);
          EXPECT_EQ(counts.subgroups[i].mean,
                    snapshot.subgroups()[i].average());
        }
        for (const UtilityConfig& config : configs) {
          SCOPED_TRACE(testing::Message()
                       << SideName(side) << " attribute " << attribute
                       << " cut " << cuts[c] << " dim " << d);
          InterestingnessScores in_place = ComputeScores(counts, seen, config);
          InterestingnessScores exact = ComputeScores(snapshot, seen, config);
          EXPECT_EQ(in_place.conciseness, exact.conciseness);
          EXPECT_EQ(in_place.agreement, exact.agreement);
          EXPECT_EQ(in_place.self_peculiarity, exact.self_peculiarity);
          EXPECT_EQ(in_place.global_peculiarity, exact.global_peculiarity);
          EXPECT_GT(exact.global_peculiarity, 0.0);
          EXPECT_EQ(Utility(in_place, config), Utility(exact, config));
        }
      }
    }
  }
}

TEST(MultiAggregateScanTest, DeactivatedDimensionStopsUpdating) {
  auto db = MakeRandomDb(20, 10, 300, 2, 23);
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  MultiAggregateScan scan(&all, Side::kItem, 0);
  scan.Update(0, 100);
  EXPECT_EQ(scan.processed(0), 100u);
  EXPECT_EQ(scan.processed(1), 100u);
  scan.DeactivateDimension(1);
  EXPECT_EQ(scan.num_active(), 1u);
  scan.Update(100, 200);
  EXPECT_EQ(scan.processed(0), 200u);
  EXPECT_EQ(scan.processed(1), 100u);
  // Deactivating twice is a no-op.
  scan.DeactivateDimension(1);
  EXPECT_EQ(scan.num_active(), 1u);
}

TEST(MultiAggregateScanTest, WorkCountsActiveDimensionsOnly) {
  auto db = MakeRandomDb(20, 10, 300, 3, 25);
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  MultiAggregateScan scan(&all, Side::kReviewer, 0);
  EXPECT_EQ(scan.Update(0, 50), 50u * 3u);
  scan.DeactivateDimension(0);
  scan.DeactivateDimension(2);
  EXPECT_EQ(scan.Update(50, 100), 50u * 1u);
  scan.DeactivateDimension(1);
  EXPECT_EQ(scan.Update(100, 150), 0u);
}

// ------------------------------------------------------------ CI pruner --

TEST(CiPrunerTest, EnvelopeIsMaxOfActiveBounds) {
  CandidateIntervals cand;
  cand.criteria[0] = {0.1, 0.3, true};
  cand.criteria[1] = {0.5, 0.7, true};
  cand.criteria[2] = {0.2, 0.4, true};
  cand.criteria[3] = {0.0, 0.2, true};
  cand.weight = 1.0;
  ComputeEnvelope(&cand);
  // Criteria 0 ([.1,.3]), 2 ([.2,.4]) and 3 ([0,.2]) are dominated by 1
  // ([.5,.7]) or by each other... 0's ub(.3) < 1's lb(.5): dominated.
  EXPECT_FALSE(cand.criteria[0].active);
  EXPECT_TRUE(cand.criteria[1].active);
  EXPECT_FALSE(cand.criteria[2].active);
  EXPECT_FALSE(cand.criteria[3].active);
  EXPECT_DOUBLE_EQ(cand.lb, 0.5);
  EXPECT_DOUBLE_EQ(cand.ub, 0.7);
}

TEST(CiPrunerTest, OverlappingIntervalsAllSurvive) {
  CandidateIntervals cand;
  cand.criteria[0] = {0.2, 0.6, true};
  cand.criteria[1] = {0.3, 0.5, true};
  cand.criteria[2] = {0.1, 0.4, true};
  cand.criteria[3] = {0.35, 0.8, true};
  cand.weight = 0.5;
  ComputeEnvelope(&cand);
  EXPECT_TRUE(cand.criteria[0].active);
  EXPECT_TRUE(cand.criteria[1].active);
  EXPECT_TRUE(cand.criteria[3].active);
  // Envelope = weight * [max lb, max ub] over active criteria.
  EXPECT_DOUBLE_EQ(cand.ub, 0.5 * 0.8);
  EXPECT_DOUBLE_EQ(cand.lb, 0.5 * 0.35);
}

CandidateIntervals MakeCand(double lb, double ub) {
  CandidateIntervals c;
  c.criteria[0] = {lb, ub, true};
  for (int i = 1; i < 4; ++i) c.criteria[i] = {0.0, 0.0, false};
  c.lb = lb;
  c.ub = ub;
  return c;
}

TEST(CiPrunerTest, PrunesOnlyProvablyBeatenCandidates) {
  // Top-2 lower bounds are {0.6, 0.5}; lowest top lb = 0.5.
  std::vector<CandidateIntervals> cands = {
      MakeCand(0.6, 0.9), MakeCand(0.5, 0.8),
      MakeCand(0.2, 0.55),  // ub 0.55 >= 0.5: kept
      MakeCand(0.1, 0.3),   // ub 0.3 < 0.5: pruned
  };
  std::vector<bool> prune = CiPrune(cands, 2);
  EXPECT_FALSE(prune[0]);
  EXPECT_FALSE(prune[1]);
  EXPECT_FALSE(prune[2]);
  EXPECT_TRUE(prune[3]);
}

TEST(CiPrunerTest, NoPruningWhenFewerThanKPrime) {
  std::vector<CandidateIntervals> cands = {MakeCand(0.1, 0.2),
                                           MakeCand(0.3, 0.4)};
  std::vector<bool> prune = CiPrune(cands, 5);
  EXPECT_FALSE(prune[0]);
  EXPECT_FALSE(prune[1]);
}

TEST(CiPrunerTest, ThresholdIsKthLargestLowerBoundOverall) {
  // Regression for a weakened threshold: Algorithm 3 prunes against the
  // k'-th largest lb over ALL candidates, not the minimum lb among the
  // top-k'-by-ub candidates. Here the two differ: B has the 2nd-highest
  // ub but a tiny lb, so the buggy threshold was 0.1 and pruned nothing,
  // while the correct threshold is C's lb = 0.6, which prunes D.
  std::vector<CandidateIntervals> cands = {
      MakeCand(0.8, 0.9),   // A
      MakeCand(0.1, 0.85),  // B: wide interval, high ub, tiny lb
      MakeCand(0.6, 0.7),   // C
      MakeCand(0.3, 0.5),   // D: beaten w.h.p. by A and C
  };
  std::vector<bool> prune = CiPrune(cands, 2);
  EXPECT_FALSE(prune[0]);
  EXPECT_FALSE(prune[1]);  // ub 0.85 >= 0.6: could still make top-2
  EXPECT_FALSE(prune[2]);
  EXPECT_TRUE(prune[3]) << "ub 0.5 < 2nd-largest lb 0.6 must be pruned";
}

TEST(CiPrunerTest, WideIntervalsPruneNothing) {
  std::vector<CandidateIntervals> cands;
  for (int i = 0; i < 10; ++i) cands.push_back(MakeCand(0.0, 1.0));
  std::vector<bool> prune = CiPrune(cands, 3);
  for (bool p : prune) EXPECT_FALSE(p);
}

// The soundness property: with exact intervals (a candidate's true value
// always inside), pruned candidates can never belong to the true top-k'.
class CiPruneSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(CiPruneSoundnessTest, NeverPrunesTrueTopK) {
  Rng rng(8000 + GetParam());
  const size_t n = 20;
  const size_t k = 4;
  std::vector<double> truth(n);
  std::vector<CandidateIntervals> cands(n);
  for (size_t i = 0; i < n; ++i) {
    truth[i] = rng.UniformDouble();
    double eps = rng.UniformDouble() * 0.3;
    cands[i] = MakeCand(std::max(0.0, truth[i] - eps),
                        std::min(1.0, truth[i] + eps));
  }
  std::vector<bool> prune = CiPrune(cands, k);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return truth[a] > truth[b]; });
  for (size_t r = 0; r < k; ++r) {
    EXPECT_FALSE(prune[order[r]]) << "pruned true rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CiPruneSoundnessTest,
                         ::testing::Range(0, 25));

// ----------------------------------------------------------- MAB (SAR) --

TEST(SarTest, NoDecisionWhenEveryArmFits) {
  EXPECT_EQ(SarStep({0.5, 0.4}, 3).action, SarAction::kNone);
  EXPECT_EQ(SarStep({}, 2).action, SarAction::kNone);
}

TEST(SarTest, AcceptsClearWinner) {
  // means: top 0.9, k'=1 -> delta1 = 0.9-0.3 = 0.6; delta2 = 0.9-0.2 ...
  // With k_remaining=1: delta1 = m[0]-m[1], delta2 = m[0]-m[last].
  SarDecision d = SarStep({0.9, 0.3, 0.25, 0.2}, 1);
  // delta1 = 0.6 > delta2's competitor? delta2 = m[k'-1]-m[last] = 0.9-0.2=0.7
  // 0.6 < 0.7 -> reject bottom.
  EXPECT_EQ(d.action, SarAction::kRejectBottom);
  EXPECT_EQ(d.index, 3u);
}

TEST(SarTest, AcceptTopWhenGapAtTopDominates) {
  // k_remaining = 2. sorted: .9 .3 .28 .27
  // delta1 = m[0]-m[2] = .62; delta2 = m[1]-m[3] = .03 -> accept top.
  SarDecision d = SarStep({0.9, 0.3, 0.28, 0.27}, 2);
  EXPECT_EQ(d.action, SarAction::kAcceptTop);
  EXPECT_EQ(d.index, 0u);
}

TEST(SarTest, RejectsWhenAllSlotsTaken) {
  SarDecision d = SarStep({0.5, 0.1}, 0);
  EXPECT_EQ(d.action, SarAction::kRejectBottom);
  EXPECT_EQ(d.index, 1u);
}

TEST(SarTest, IndicesReferToInputPositions) {
  // Unsorted input: max at position 2, min at position 0.
  SarDecision d = SarStep({0.05, 0.5, 0.95, 0.5}, 2);
  if (d.action == SarAction::kAcceptTop) {
    EXPECT_EQ(d.index, 2u);
  } else {
    EXPECT_EQ(d.index, 0u);
  }
}

// Running full SAR (one step at a time, simulating exact means) must end
// with exactly the true top-k' arms.
class SarConvergenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SarConvergenceTest, FullRunKeepsTrueTopK) {
  Rng rng(9000 + GetParam());
  const size_t n = 12;
  const size_t k = 1 + GetParam() % 4;
  std::vector<double> means(n);
  for (double& m : means) m = rng.UniformDouble();

  std::vector<size_t> open(n);
  for (size_t i = 0; i < n; ++i) open[i] = i;
  std::vector<size_t> accepted;
  while (open.size() + accepted.size() > k || !open.empty()) {
    std::vector<double> open_means;
    for (size_t i : open) open_means.push_back(means[i]);
    SarDecision d = SarStep(open_means, k - accepted.size());
    if (d.action == SarAction::kNone) {
      // All remaining fit: accept them all.
      accepted.insert(accepted.end(), open.begin(), open.end());
      open.clear();
      break;
    }
    size_t arm = open[d.index];
    open.erase(open.begin() + static_cast<long>(d.index));
    if (d.action == SarAction::kAcceptTop) accepted.push_back(arm);
  }
  ASSERT_EQ(accepted.size(), k);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return means[a] > means[b]; });
  std::set<size_t> expected(order.begin(), order.begin() + k);
  for (size_t a : accepted) EXPECT_TRUE(expected.count(a) > 0);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SarConvergenceTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace subdex
