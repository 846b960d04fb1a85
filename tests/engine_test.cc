#include <gtest/gtest.h>

#include <set>

#include "engine/exploration_session.h"
#include "engine/recommendation_builder.h"
#include "engine/rm_pipeline.h"
#include "engine/sde_engine.h"
#include "tests/test_support.h"
#include "util/thread_pool.h"

namespace subdex {
namespace {

using testing_support::MakeRandomDb;
using testing_support::MakeTinyRestaurantDb;

EngineConfig SmallConfig() {
  EngineConfig config;
  config.k = 3;
  config.o = 3;
  config.l = 3;
  config.min_group_size = 1;
  config.operations.max_candidates = 60;
  config.num_threads = 2;
  return config;
}

std::set<std::string> KeySet(const std::vector<ScoredRatingMap>& maps,
                             const SubjectiveDatabase& db) {
  std::set<std::string> keys;
  for (const auto& m : maps) keys.insert(m.map.key().ToString(db));
  return keys;
}

// -------------------------------------------------------- RmGenerator ---

TEST(RmGeneratorTest, ReturnsSortedByDwUtility) {
  auto db = MakeRandomDb(60, 20, 800, 3, 31);
  EngineConfig config = SmallConfig();
  RmGenerator gen(&config);
  SeenMapsTracker seen(db->num_dimensions());
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  auto maps = gen.Generate(all, seen, 6);
  ASSERT_LE(maps.size(), 6u);
  ASSERT_GE(maps.size(), 2u);
  for (size_t i = 1; i < maps.size(); ++i) {
    EXPECT_GE(maps[i - 1].dw_utility, maps[i].dw_utility);
  }
  for (const auto& m : maps) {
    // Survivor maps cover the full group.
    EXPECT_EQ(m.map.group_size(), all.size());
    EXPECT_GE(m.utility, 0.0);
    EXPECT_LE(m.utility, 1.0);
  }
}

TEST(RmGeneratorTest, PruningAgreesWithNoPruningOnTopSet) {
  auto db = MakeRandomDb(80, 25, 1500, 2, 33);
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  SeenMapsTracker seen(db->num_dimensions());

  EngineConfig exact_config = SmallConfig();
  exact_config.pruning = PruningScheme::kNone;
  RmGenerator exact_gen(&exact_config);
  auto exact = exact_gen.Generate(all, seen, 4);

  for (PruningScheme scheme :
       {PruningScheme::kConfidenceInterval, PruningScheme::kMab,
        PruningScheme::kHybrid}) {
    EngineConfig config = SmallConfig();
    config.pruning = scheme;
    RmGenerator gen(&config);
    RmGeneratorStats stats;
    auto pruned = gen.Generate(all, seen, 4, &stats);
    ASSERT_EQ(pruned.size(), exact.size())
        << PruningSchemeName(scheme);
    // The pruned top set should strongly overlap the exact one (pruning is
    // probabilistic; require at least 3 of 4 and matching top-1 utility).
    std::set<std::string> e = KeySet(exact, *db);
    std::set<std::string> p = KeySet(pruned, *db);
    size_t overlap = 0;
    for (const auto& k : p) overlap += e.count(k);
    EXPECT_GE(overlap, 3u) << PruningSchemeName(scheme);
    EXPECT_NEAR(pruned[0].dw_utility, exact[0].dw_utility, 0.05)
        << PruningSchemeName(scheme);
  }
}

TEST(RmGeneratorTest, PruningReducesWork) {
  auto db = MakeRandomDb(100, 30, 3000, 3, 35);
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  SeenMapsTracker seen(db->num_dimensions());

  auto run = [&](PruningScheme scheme) {
    EngineConfig config = SmallConfig();
    config.pruning = scheme;
    RmGenerator gen(&config);
    RmGeneratorStats stats;
    EXPECT_FALSE(gen.Generate(all, seen, 3, &stats).empty());
    return stats;
  };
  RmGeneratorStats none = run(PruningScheme::kNone);
  RmGeneratorStats hybrid = run(PruningScheme::kHybrid);
  EXPECT_LT(hybrid.record_updates, none.record_updates);
  EXPECT_GT(hybrid.pruned_ci + hybrid.pruned_mab, 0u);
  EXPECT_EQ(none.pruned_ci + none.pruned_mab, 0u);
}

TEST(RmGeneratorTest, EmptyGroupYieldsNothing) {
  auto db = MakeTinyRestaurantDb();
  EngineConfig config = SmallConfig();
  RmGenerator gen(&config);
  SeenMapsTracker seen(db->num_dimensions());
  RatingGroup empty(&*db, GroupSelection{}, std::vector<RecordId>{});
  EXPECT_TRUE(gen.Generate(empty, seen, 5).empty());
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  EXPECT_TRUE(gen.Generate(all, seen, 0).empty());
}

TEST(RmGeneratorTest, DeterministicAcrossRuns) {
  auto db = MakeRandomDb(50, 15, 700, 2, 37);
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  SeenMapsTracker seen(db->num_dimensions());
  EngineConfig config = SmallConfig();
  RmGenerator gen(&config);
  auto a = gen.Generate(all, seen, 5);
  auto b = gen.Generate(all, seen, 5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].map.key() == b[i].map.key());
    EXPECT_DOUBLE_EQ(a[i].dw_utility, b[i].dw_utility);
  }
}

TEST(RmGeneratorTest, DimensionWeightsSteerSelection) {
  auto db = MakeRandomDb(60, 20, 1000, 3, 39);
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  EngineConfig config = SmallConfig();
  RmGenerator gen(&config);

  // History saturated with dimension 0 -> its weight collapses to 0, so no
  // dimension-0 map can be selected over any other dimension's map.
  SeenMapsTracker seen(db->num_dimensions());
  for (int i = 0; i < 5; ++i) {
    seen.Record(RatingMap::Build(all, {Side::kReviewer, 0, 0}));
  }
  auto maps = gen.Generate(all, seen, 4);
  for (const auto& m : maps) {
    EXPECT_NE(m.map.key().dimension, 0u);
  }
}

// The pruning machinery must stay sound under every utility aggregation
// (the interval logic special-cases max vs. the rest).
class AggregationSweepTest
    : public ::testing::TestWithParam<UtilityAggregation> {};

TEST_P(AggregationSweepTest, PrunedMatchesExactTopSet) {
  auto db = MakeRandomDb(60, 20, 1000, 3, 61);
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  SeenMapsTracker seen(db->num_dimensions());

  EngineConfig exact_config = SmallConfig();
  exact_config.pruning = PruningScheme::kNone;
  exact_config.utility.aggregation = GetParam();
  exact_config.utility.single = UtilityCriterion::kAgreement;
  RmGenerator exact_gen(&exact_config);
  auto exact = exact_gen.Generate(all, seen, 4);

  EngineConfig pruned_config = exact_config;
  pruned_config.pruning = PruningScheme::kHybrid;
  RmGenerator pruned_gen(&pruned_config);
  auto pruned = pruned_gen.Generate(all, seen, 4);

  ASSERT_EQ(pruned.size(), exact.size());
  // Non-max aggregations compress utilities into a narrow band where many
  // candidates tie; the sound property is equivalent *quality* of the
  // returned set, not set identity.
  double exact_total = 0.0;
  double pruned_total = 0.0;
  for (const auto& m : exact) exact_total += m.dw_utility;
  for (const auto& m : pruned) pruned_total += m.dw_utility;
  EXPECT_NEAR(pruned_total, exact_total, 0.08 * exact.size());
  EXPECT_NEAR(pruned[0].dw_utility, exact[0].dw_utility, 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllAggregations, AggregationSweepTest,
                         ::testing::Values(UtilityAggregation::kMax,
                                           UtilityAggregation::kAverage,
                                           UtilityAggregation::kSingleCriterion));

TEST(RmGeneratorTest, KlPeculiarityConfigRunsEndToEnd) {
  auto db = MakeRandomDb(50, 15, 600, 2, 63);
  EngineConfig config = SmallConfig();
  config.utility.peculiarity_measure = PeculiarityMeasure::kKlDivergence;
  SdeEngine engine(db.get(), config);
  StepResult step = engine.ExecuteStep(GroupSelection{}, true);
  EXPECT_EQ(step.maps.size(), config.k);
  for (const ScoredRatingMap& m : step.maps) {
    EXPECT_GE(m.scores.self_peculiarity, 0.0);
    EXPECT_LE(m.scores.self_peculiarity, 1.0);
  }
  EXPECT_FALSE(step.recommendations.empty());
}

TEST(RmGeneratorTest, SharingAblationPreservesResults) {
  auto db = MakeRandomDb(50, 20, 800, 3, 53);
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  SeenMapsTracker seen(db->num_dimensions());

  EngineConfig shared_config = SmallConfig();
  EngineConfig unshared_config = SmallConfig();
  unshared_config.share_scans = false;
  RmGenerator shared_gen(&shared_config);
  RmGenerator unshared_gen(&unshared_config);
  auto a = shared_gen.Generate(all, seen, 6);
  auto b = unshared_gen.Generate(all, seen, 6);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].map.key() == b[i].map.key());
    EXPECT_DOUBLE_EQ(a[i].dw_utility, b[i].dw_utility);
  }
}

TEST(RecommendationBuilderTest, ExcludesExploredSelections) {
  auto db = MakeTinyRestaurantDb();
  EngineConfig config = SmallConfig();
  RmPipeline pipeline(&config);
  RecommendationBuilder builder(db.get(), &config, &pipeline);
  SeenMapsTracker seen(db->num_dimensions());

  auto baseline = builder.TopRecommendations(GroupSelection{}, seen);
  ASSERT_FALSE(baseline.empty());
  // Declare the top target as already explored: it must not come back.
  std::vector<GroupSelection> explored = {baseline[0].operation.target};
  auto filtered = builder.TopRecommendations(GroupSelection{}, seen, explored);
  for (const Recommendation& rec : filtered) {
    EXPECT_FALSE(rec.operation.target == explored[0]);
  }
}

TEST(RecommendationBuilderTest, EvaluationBudgetPrefersSingleEdits) {
  auto db = MakeRandomDb(40, 15, 500, 2, 55);
  EngineConfig config = SmallConfig();
  config.operations.max_candidates = 200;
  config.max_operation_evaluations = 12;
  RmPipeline pipeline(&config);
  RecommendationBuilder builder(db.get(), &config, &pipeline);
  SeenMapsTracker seen(db->num_dimensions());
  auto recs = builder.TopRecommendations(GroupSelection{}, seen);
  ASSERT_FALSE(recs.empty());
  for (const Recommendation& rec : recs) {
    EXPECT_EQ(rec.operation.num_edits, 1u);
  }
}

TEST(SdeEngineTest, FullyAutomatedNeverRevisitsASelection) {
  auto db = MakeRandomDb(50, 20, 700, 2, 57);
  ExplorationSession session(db.get(), SmallConfig(),
                             ExplorationMode::kFullyAutomated);
  session.Start(GroupSelection{});
  session.RunAutomated(6);
  const auto& path = session.path();
  for (size_t i = 0; i < path.size(); ++i) {
    for (size_t j = i + 1; j < path.size(); ++j) {
      EXPECT_FALSE(path[i].selection == path[j].selection)
          << "revisited at steps " << i << " and " << j;
    }
  }
}

// --------------------------------------------------------- RmPipeline ---

TEST(RmPipelineTest, SelectionModesBehave) {
  auto db = MakeRandomDb(60, 20, 900, 2, 41);
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  SeenMapsTracker seen(db->num_dimensions());

  EngineConfig util_only = SmallConfig();
  util_only.selection = SelectionMode::kUtilityOnly;
  RmPipeline p1(&util_only);
  auto u_maps = p1.SelectForDisplay(all, seen);
  ASSERT_EQ(u_maps.size(), util_only.k);

  EngineConfig both = SmallConfig();
  RmPipeline p2(&both);
  auto d_maps = p2.SelectForDisplay(all, seen);
  ASSERT_EQ(d_maps.size(), both.k);

  EngineConfig div_only = SmallConfig();
  div_only.selection = SelectionMode::kDiversityOnly;
  RmPipeline p3(&div_only);
  auto dd_maps = p3.SelectForDisplay(all, seen);
  ASSERT_EQ(dd_maps.size(), div_only.k);

  // Utility-only maximizes summed DW utility among the three modes.
  auto total = [](const std::vector<ScoredRatingMap>& maps) {
    return RmPipeline::OperationUtility(maps);
  };
  EXPECT_GE(total(u_maps) + 1e-9, total(d_maps));
  EXPECT_GE(total(d_maps) + 1e-9, total(dd_maps));
}

TEST(RmPipelineTest, OperationUtilityIsSumOfDw) {
  std::vector<ScoredRatingMap> maps(3);
  maps[0].dw_utility = 0.5;
  maps[1].dw_utility = 0.25;
  maps[2].dw_utility = 0.1;
  EXPECT_DOUBLE_EQ(RmPipeline::OperationUtility(maps), 0.85);
}

// ------------------------------------------------ RecommendationBuilder --

TEST(RecommendationBuilderTest, ReturnsTopORankedByUtility) {
  auto db = MakeTinyRestaurantDb();
  EngineConfig config = SmallConfig();
  RmPipeline pipeline(&config);
  RecommendationBuilder builder(db.get(), &config, &pipeline);
  SeenMapsTracker seen(db->num_dimensions());
  auto recs = builder.TopRecommendations(GroupSelection{}, seen);
  ASSERT_LE(recs.size(), config.o);
  ASSERT_GE(recs.size(), 1u);
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i - 1].utility, recs[i].utility);
  }
  for (const auto& rec : recs) {
    EXPECT_GE(rec.group_size, config.min_group_size);
    EXPECT_FALSE(rec.maps.empty());
    // Eq. 2: utility equals the sum of the maps' DW utilities.
    EXPECT_NEAR(rec.utility, RmPipeline::OperationUtility(rec.maps), 1e-12);
  }
}

TEST(RecommendationBuilderTest, ParallelEqualsSequential) {
  auto db = MakeRandomDb(40, 15, 500, 2, 43);
  EngineConfig par = SmallConfig();
  par.parallel_recommendations = true;
  par.num_threads = 4;
  EngineConfig seq = SmallConfig();
  seq.parallel_recommendations = false;

  ThreadPool pool(par.num_threads);
  RmPipeline pp(&par, &pool);
  RmPipeline sp(&seq);
  RecommendationBuilder pb(db.get(), &par, &pp, nullptr, &pool);
  RecommendationBuilder sb(db.get(), &seq, &sp);
  SeenMapsTracker seen(db->num_dimensions());
  auto a = pb.TopRecommendations(GroupSelection{}, seen);
  auto b = sb.TopRecommendations(GroupSelection{}, seen);
  EXPECT_GT(pool.stats().tasks_submitted, 0u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].operation.target, b[i].operation.target);
    EXPECT_DOUBLE_EQ(a[i].utility, b[i].utility);
  }
}

TEST(RecommendationBuilderTest, RespectsMinGroupSize) {
  auto db = MakeTinyRestaurantDb();
  EngineConfig config = SmallConfig();
  config.min_group_size = 4;
  RmPipeline pipeline(&config);
  RecommendationBuilder builder(db.get(), &config, &pipeline);
  SeenMapsTracker seen(db->num_dimensions());
  auto recs = builder.TopRecommendations(GroupSelection{}, seen);
  for (const auto& rec : recs) {
    EXPECT_GE(rec.group_size, 4u);
  }
}

// ----------------------------------------------------------- SdeEngine --

TEST(SdeEngineTest, ExecuteStepRecordsHistory) {
  auto db = MakeTinyRestaurantDb();
  SdeEngine engine(db.get(), SmallConfig());
  EXPECT_EQ(engine.seen().total(), 0u);
  StepResult step = engine.ExecuteStep(GroupSelection{}, false);
  EXPECT_EQ(step.group_size, db->num_records());
  EXPECT_EQ(step.maps.size(), engine.config().k);
  EXPECT_EQ(engine.seen().total(), engine.config().k);
  EXPECT_TRUE(step.recommendations.empty());
  EXPECT_GT(step.elapsed_ms, 0.0);

  StepResult with_recs = engine.ExecuteStep(GroupSelection{}, true);
  EXPECT_FALSE(with_recs.recommendations.empty());
  engine.ResetHistory();
  EXPECT_EQ(engine.seen().total(), 0u);
}

TEST(SdeEngineTest, RecommendationsHoldOnlyTheirOwnStorage) {
  // The step result, the session path and the server's last step keep the
  // list, so it must not carry capacity for every evaluated candidate.
  auto db = MakeRandomDb(60, 20, 800, 2, 43);
  EngineConfig config = SmallConfig();
  SdeEngine engine(db.get(), config);
  StepResult step = engine.ExecuteStep(GroupSelection{}, true);
  ASSERT_FALSE(step.recommendations.empty());
  EXPECT_LE(step.recommendations.capacity(), config.o);
}

TEST(SdeEngineTest, ExploredSelectionsDeduplicated) {
  auto db = MakeTinyRestaurantDb();
  SdeEngine engine(db.get(), SmallConfig());
  engine.ExecuteStep(GroupSelection{}, false);
  engine.ExecuteStep(GroupSelection{}, false);
  engine.ExecuteStep(GroupSelection{}, false);
  // Revisiting the same selection must not grow the history list.
  EXPECT_EQ(engine.explored_selections().size(), 1u);
  GroupSelection other;
  other.reviewer_pred = Predicate({{0, 0}});
  engine.ExecuteStep(other, false);
  EXPECT_EQ(engine.explored_selections().size(), 2u);
}

TEST(SdeEngineTest, EngineOwnedPoolIsReusedAcrossSteps) {
  auto db = MakeRandomDb(40, 15, 500, 2, 59);
  EngineConfig config = SmallConfig();
  config.num_threads = 4;
  SdeEngine engine(db.get(), config);
  ASSERT_NE(engine.pool(), nullptr);
  const ThreadPool* pool = engine.pool();
  engine.ExecuteStep(GroupSelection{}, true);
  size_t after_first = pool->stats().tasks_submitted;
  EXPECT_GT(after_first, 0u);
  engine.ExecuteStep(GroupSelection{}, true);
  // Same pool object served the second step (no churn, counters carry on).
  EXPECT_EQ(engine.pool(), pool);
  EXPECT_GT(pool->stats().tasks_submitted, after_first);
}

TEST(SdeEngineTest, SerialConfigRunsWithoutPool) {
  auto db = MakeTinyRestaurantDb();
  EngineConfig config = SmallConfig();
  config.num_threads = 1;
  SdeEngine engine(db.get(), config);
  EXPECT_EQ(engine.pool(), nullptr);
  StepResult step = engine.ExecuteStep(GroupSelection{}, true);
  EXPECT_FALSE(step.recommendations.empty());
}

TEST(SdeEngineTest, StepTimingsBreakDownTheStep) {
  auto db = MakeRandomDb(40, 15, 600, 2, 67);
  SdeEngine engine(db.get(), SmallConfig());
  StepResult step = engine.ExecuteStep(GroupSelection{}, true);
  const std::vector<StepTrace::PhaseSpan>& spans = step.trace.spans;
  ASSERT_EQ(spans.size(), 4u);
  const StepPhase order[] = {StepPhase::kMaterialize, StepPhase::kRmGeneration,
                             StepPhase::kGmmSelection,
                             StepPhase::kRecommendations};
  double itemized = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].phase, order[i]);
    EXPECT_TRUE(spans[i].completed);
    EXPECT_GE(spans[i].duration_ms, 0.0);
    // Phases run in order and never overlap.
    if (i > 0) {
      EXPECT_GE(spans[i].start_ms,
                spans[i - 1].start_ms + spans[i - 1].duration_ms - 1e-9);
    }
    itemized += spans[i].duration_ms;
  }
  EXPECT_GT(spans[1].duration_ms, 0.0);
  EXPECT_GT(spans[3].duration_ms, 0.0);
  EXPECT_LE(itemized, step.elapsed_ms + 1e-6);
}

// Acceptance invariant of the shared-pool refactor: parallel and serial
// execution produce identical recommendation rankings, step after step.
TEST(SdeEngineTest, ParallelAndSerialRankingsIdentical) {
  auto db = MakeRandomDb(50, 20, 800, 2, 71);
  EngineConfig par = SmallConfig();
  par.num_threads = 4;
  par.parallel_recommendations = true;
  EngineConfig ser = SmallConfig();
  ser.num_threads = 1;
  ser.parallel_recommendations = false;

  SdeEngine parallel(db.get(), par);
  SdeEngine serial(db.get(), ser);
  GroupSelection selection;  // both engines follow the serial engine's path
  for (int s = 0; s < 3; ++s) {
    StepResult a = parallel.ExecuteStep(selection, true);
    StepResult b = serial.ExecuteStep(selection, true);
    ASSERT_EQ(a.maps.size(), b.maps.size());
    for (size_t i = 0; i < a.maps.size(); ++i) {
      EXPECT_TRUE(a.maps[i].map.key() == b.maps[i].map.key());
      EXPECT_EQ(a.maps[i].dw_utility, b.maps[i].dw_utility);
    }
    ASSERT_EQ(a.recommendations.size(), b.recommendations.size());
    ASSERT_FALSE(b.recommendations.empty());
    for (size_t i = 0; i < a.recommendations.size(); ++i) {
      EXPECT_EQ(a.recommendations[i].operation.target,
                b.recommendations[i].operation.target);
      EXPECT_EQ(a.recommendations[i].utility, b.recommendations[i].utility);
      EXPECT_EQ(a.recommendations[i].group_size,
                b.recommendations[i].group_size);
    }
    selection = b.recommendations[0].operation.target;
  }
}

TEST(SdeEngineTest, MultiStepDiversityAvoidsRepeatingOneDimension) {
  auto db = MakeRandomDb(60, 20, 900, 4, 47);
  SdeEngine engine(db.get(), SmallConfig());
  for (int s = 0; s < 4; ++s) {
    engine.ExecuteStep(GroupSelection{}, false);
  }
  // With DW weighting, all 4 dimensions should have been displayed.
  size_t dims_shown = 0;
  for (size_t d = 0; d < db->num_dimensions(); ++d) {
    if (engine.seen().dimension_count(d) > 0) ++dims_shown;
  }
  EXPECT_EQ(dims_shown, 4u);
}

// -------------------------------------------------- ExplorationSession --

TEST(ExplorationSessionTest, UserDrivenFlow) {
  auto db = MakeTinyRestaurantDb();
  ExplorationSession session(db.get(), SmallConfig(),
                             ExplorationMode::kUserDriven);
  const StepResult& first = session.Start(GroupSelection{});
  EXPECT_TRUE(first.recommendations.empty());  // UD shows no recommendations
  GroupSelection next;
  next.reviewer_pred = Predicate(
      {{0, db->reviewers().LookupValue(0, "F")}});
  session.ApplyOperation(next);
  EXPECT_EQ(session.path().size(), 2u);
  EXPECT_EQ(session.last().selection, next);
}

TEST(ExplorationSessionTest, FullyAutomatedFollowsTopRecommendation) {
  auto db = MakeRandomDb(40, 15, 600, 2, 49);
  ExplorationSession session(db.get(), SmallConfig(),
                             ExplorationMode::kFullyAutomated);
  const StepResult& first = session.Start(GroupSelection{});
  ASSERT_FALSE(first.recommendations.empty());
  GroupSelection expected = first.recommendations[0].operation.target;
  size_t done = session.RunAutomated(3);
  EXPECT_EQ(done, 3u);
  EXPECT_EQ(session.path().size(), 4u);
  EXPECT_EQ(session.path()[1].selection, expected);
}

TEST(ExplorationSessionTest, RecommendationPoweredAllowsBoth) {
  auto db = MakeRandomDb(40, 15, 600, 2, 51);
  ExplorationSession session(db.get(), SmallConfig(),
                             ExplorationMode::kRecommendationPowered);
  const StepResult& first = session.Start(GroupSelection{});
  ASSERT_FALSE(first.recommendations.empty());
  EXPECT_TRUE(session.ApplyRecommendation(0));
  GroupSelection own;
  own.item_pred = Predicate({{0, db->items().LookupValue(0, "nyc")}});
  session.ApplyOperation(own);
  EXPECT_EQ(session.path().size(), 3u);
}

TEST(ExplorationSessionTest, ApplyRecommendationOutOfRangeFails) {
  auto db = MakeTinyRestaurantDb();
  ExplorationSession session(db.get(), SmallConfig(),
                             ExplorationMode::kFullyAutomated);
  session.Start(GroupSelection{});
  EXPECT_FALSE(session.ApplyRecommendation(99));
}

}  // namespace
}  // namespace subdex
