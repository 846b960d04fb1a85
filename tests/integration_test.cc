// End-to-end tests exercising the full SubDEx stack: synthetic dataset
// generation (including the text-extraction pipeline), planting, all three
// exploration modes, the published baselines, and the scalability variants.

#include <gtest/gtest.h>

#include <set>

#include "baselines/qagview.h"
#include "baselines/smart_drilldown.h"
#include "datagen/specs.h"
#include "datagen/synthetic.h"
#include "datagen/transforms.h"
#include "study/experiment.h"

namespace subdex {
namespace {

DatasetSpec SmallYelp() {
  DatasetSpec spec = YelpSpec().Scaled(0.02);
  spec.num_items = 50;
  return spec;  // text pipeline stays ON: full ingestion path
}

EngineConfig DefaultConfig() {
  EngineConfig config;  // paper defaults: k=3, o=3, l=3, n=10
  config.num_threads = 2;
  config.operations.max_candidates = 100;
  return config;
}

TEST(IntegrationTest, FullPipelineOnTextExtractedYelp) {
  auto db = GenerateDataset(SmallYelp(), 777);
  EXPECT_EQ(db->num_dimensions(), 4u);

  ExplorationSession session(db.get(), DefaultConfig(),
                             ExplorationMode::kFullyAutomated);
  session.Start(GroupSelection{});
  size_t steps = session.RunAutomated(4);
  EXPECT_EQ(steps, 4u);
  EXPECT_EQ(session.path().size(), 5u);
  for (const StepResult& step : session.path()) {
    EXPECT_EQ(step.maps.size(), 3u);
    // Each displayed map carries valid scores.
    for (const ScoredRatingMap& m : step.maps) {
      EXPECT_GE(m.utility, 0.0);
      EXPECT_LE(m.utility, 1.0);
      EXPECT_LE(m.dw_utility, m.utility + 1e-12);
    }
  }
  // Consecutive selections differ by at most 2 edits (the operation space).
  for (size_t i = 1; i < session.path().size(); ++i) {
    EXPECT_LE(session.path()[i - 1].selection.EditDistance(
                  session.path()[i].selection),
              2u);
  }
  // History grew by k per step.
  EXPECT_EQ(session.engine().seen().total(), 5u * 3u);
}

TEST(IntegrationTest, DimensionWeightingBalancesDisplayedDimensions) {
  auto db = GenerateDataset(SmallYelp(), 779);
  EngineConfig config = DefaultConfig();
  ExplorationSession session(db.get(), config,
                             ExplorationMode::kFullyAutomated);
  session.Start(GroupSelection{});
  session.RunAutomated(6);
  const SeenMapsTracker& seen = session.engine().seen();
  size_t dims_used = 0;
  for (size_t d = 0; d < db->num_dimensions(); ++d) {
    if (seen.dimension_count(d) > 0) ++dims_used;
  }
  // With 21 maps displayed and DW weighting, every dimension appears.
  EXPECT_EQ(dims_used, db->num_dimensions());
}

TEST(IntegrationTest, BaselinesProduceUsableOperationsOnRealPipeline) {
  auto db = GenerateDataset(SmallYelp(), 781);
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  SmartDrillDown sdd;
  Qagview qv;
  for (const NextActionBaseline* baseline :
       std::initializer_list<const NextActionBaseline*>{&sdd, &qv}) {
    std::vector<Operation> ops = baseline->Recommend(all, 3);
    ASSERT_FALSE(ops.empty()) << baseline->name();
    for (const Operation& op : ops) {
      RatingGroup g = RatingGroup::Materialize(*db, op.target);
      EXPECT_GT(g.size(), 0u) << baseline->name();
      EXPECT_LT(g.size(), all.size()) << baseline->name();
    }
  }
}

TEST(IntegrationTest, TransformsComposeWithEngine) {
  auto db = GenerateDataset(SmallYelp(), 783);
  auto sampled = SampleReviewers(*db, 0.5, 1);
  auto dropped = DropAttributes(*sampled, 8, 2);
  auto limited = LimitAttributeValues(*dropped, 5, 3);
  SdeEngine engine(limited.get(), DefaultConfig());
  StepResult step = engine.ExecuteStep(GroupSelection{}, true);
  EXPECT_FALSE(step.maps.empty());
  EXPECT_FALSE(step.recommendations.empty());
}

TEST(IntegrationTest, PruningVariantsAgreeOnDisplayedUtilityEndToEnd) {
  auto db = GenerateDataset(SmallYelp(), 785);
  auto run = [&](PruningScheme scheme) {
    EngineConfig config = DefaultConfig();
    config.pruning = scheme;
    SdeEngine engine(db.get(), config);
    StepResult step = engine.ExecuteStep(GroupSelection{}, false);
    return step;
  };
  StepResult exact = run(PruningScheme::kNone);
  StepResult hybrid = run(PruningScheme::kHybrid);
  ASSERT_EQ(exact.maps.size(), hybrid.maps.size());
  // Same display-set utility up to pruning noise.
  EXPECT_NEAR(RmPipeline::OperationUtility(exact.maps),
              RmPipeline::OperationUtility(hybrid.maps), 0.15);
  EXPECT_LT(hybrid.trace.display.record_updates,
            exact.trace.display.record_updates);
}

TEST(IntegrationTest, EndToEndStudySubdexBeatsDrillDownOnlyBaselines) {
  // A compact version of Table 4's comparison: with planted irregular
  // groups on both sides, SubDEx's recommendations (which can roll up)
  // find at least as many groups as the drill-down-only baselines.
  auto db = GenerateDataset(SmallYelp(), 787);
  IrregularPlantingOptions plant;
  ScenarioTask task;
  task.kind = ScenarioKind::kIrregularGroups;
  task.irregulars = PlantIrregularGroups(db.get(), plant, 97);
  ASSERT_EQ(task.irregulars.size(), 2u);

  EngineConfig config = DefaultConfig();
  const size_t subjects = 6;
  const size_t steps = 7;
  TreatmentOutcome subdex =
      RunTreatmentGroup(*db, task, ExplorationMode::kFullyAutomated,
                        /*high_cs=*/true, /*high_domain=*/false, subjects,
                        steps, config, 13);
  SmartDrillDown sdd;
  TreatmentOutcome sdd_outcome =
      RunBaselineTreatment(*db, task, sdd, subjects, steps, config, 13);
  EXPECT_GE(subdex.mean_found + 0.35, sdd_outcome.mean_found);
}

}  // namespace
}  // namespace subdex
