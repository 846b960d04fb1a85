// OperationPreferenceModel: the log-based personalization of the
// Recommendation Builder (engine/personalized.h).

#include <gtest/gtest.h>

#include <vector>

#include "engine/exploration_session.h"
#include "engine/personalized.h"
#include "tests/test_support.h"

namespace subdex {
namespace {

using testing_support::MakeRandomDb;
using testing_support::MakeTinyRestaurantDb;

TEST(PersonalizedTest, UntrainedModelIsNeutral) {
  OperationPreferenceModel model;
  auto db = MakeTinyRestaurantDb();
  GroupSelection from;
  GroupSelection to;
  to.reviewer_pred = Predicate({{0, 0}});
  EXPECT_DOUBLE_EQ(model.Affinity(from, to), 0.5);
}

TEST(PersonalizedTest, LearnsTouchedAttributes) {
  OperationPreferenceModel model;
  GroupSelection empty;
  GroupSelection by_gender;
  by_gender.reviewer_pred = Predicate({{0, 0}});
  GroupSelection by_age;
  by_age.reviewer_pred = Predicate({{1, 0}});
  // The user repeatedly slices by attribute 0, once by attribute 1.
  for (int i = 0; i < 5; ++i) model.ObserveTransition(empty, by_gender);
  model.ObserveTransition(empty, by_age);
  EXPECT_GT(model.Affinity(empty, by_gender), model.Affinity(empty, by_age));
  EXPECT_DOUBLE_EQ(model.Affinity(empty, by_gender), 1.0);
  EXPECT_EQ(model.total_observations(), 6.0);
}

TEST(PersonalizedTest, ObservePathWalksTransitions) {
  auto db = MakeRandomDb(40, 15, 400, 2, 123);
  EngineConfig config;
  config.min_group_size = 1;
  config.operations.max_candidates = 50;
  config.num_threads = 2;
  ExplorationSession session(db.get(), config,
                             ExplorationMode::kFullyAutomated);
  session.Start(GroupSelection{});
  ASSERT_GT(session.RunAutomated(3), 0u);
  std::vector<GroupSelection> path;
  for (const StepResult& step : session.path()) {
    path.push_back(step.selection);
  }

  OperationPreferenceModel model;
  model.ObservePath(path);
  EXPECT_GT(model.total_observations(), 0.0);

  // The path is exactly its consecutive transitions.
  OperationPreferenceModel by_hand;
  for (size_t i = 1; i < path.size(); ++i) {
    by_hand.ObserveTransition(path[i - 1], path[i]);
  }
  EXPECT_EQ(model.total_observations(), by_hand.total_observations());

  // Fewer than two selections hold no transition.
  OperationPreferenceModel single;
  single.ObservePath({path.front()});
  EXPECT_EQ(single.total_observations(), 0.0);
}

TEST(PersonalizedTest, RerankBlendsAffinityWithUtility) {
  OperationPreferenceModel model;
  GroupSelection empty;
  GroupSelection fav;
  fav.reviewer_pred = Predicate({{0, 0}});
  GroupSelection other;
  other.item_pred = Predicate({{0, 0}});
  for (int i = 0; i < 4; ++i) model.ObserveTransition(empty, fav);

  Recommendation high_utility;
  high_utility.operation.target = other;
  high_utility.utility = 1.0;
  Recommendation favored;
  favored.operation.target = fav;
  favored.utility = 0.8;

  // blend 0: SubDEx order (utility wins).
  auto plain = model.Rerank({high_utility, favored}, empty, 0.0);
  EXPECT_EQ(plain[0].operation.target, other);
  // Strong blend: the learned preference wins.
  auto personal = model.Rerank({high_utility, favored}, empty, 0.9);
  EXPECT_EQ(personal[0].operation.target, fav);
}

TEST(PersonalizedTest, RerankKeepsAllRecommendations) {
  OperationPreferenceModel model;
  std::vector<Recommendation> recs(4);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i].utility = static_cast<double>(i);
    recs[i].operation.target.reviewer_pred =
        Predicate({{i, static_cast<ValueCode>(0)}});
  }
  auto out = model.Rerank(recs, GroupSelection{}, 0.5);
  EXPECT_EQ(out.size(), recs.size());
}

}  // namespace
}  // namespace subdex
