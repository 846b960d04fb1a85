// Deadline, cancellation and degradation semantics of ExecuteStep: the
// anytime contract (every budget produces a valid StepResult), the
// degradation order (recommendations first, then diversification), the
// history commit rules (degraded steps commit, cancelled steps don't). The
// racy cases assert invariants rather than exact outcomes, so they stay
// deterministic under any thread scheduling.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "engine/sde_engine.h"
#include "tests/test_support.h"
#include "util/deadline.h"

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

std::vector<std::string> MapKeys(const std::vector<ScoredRatingMap>& maps,
                                 const SubjectiveDatabase& db) {
  std::vector<std::string> keys;
  for (const auto& m : maps) keys.push_back(m.map.key().ToString(db));
  return keys;
}

// ------------------------------------------------- expired on arrival ---

TEST(EngineRobustnessTest, ExpiredDeadlineReturnsValidEmptyResultFast) {
  auto db = MakeRandomDb(60, 20, 2000, 3, 7);
  SdeEngine engine(db.get(), SmallConfig());

  StepOptions options;
  options.deadline = Deadline::Expired();

  // The acceptance bar is < 5 ms; take the fastest of a few runs so a
  // loaded CI machine's scheduling hiccups cannot fail the test.
  double best_ms = 1e9;
  for (int run = 0; run < 5; ++run) {
    StepResult result = engine.ExecuteStep(GroupSelection{}, options);
    best_ms = std::min(best_ms, result.elapsed_ms);
    EXPECT_TRUE(result.degraded);
    EXPECT_FALSE(result.cancelled);
    EXPECT_EQ(result.cut_phase, StepPhase::kMaterialize);
    EXPECT_TRUE(result.maps.empty());
    EXPECT_TRUE(result.recommendations.empty());
    EXPECT_EQ(result.group_size, 0u);
  }
  EXPECT_LT(best_ms, 5.0);

  // Nothing was displayed, so nothing entered the history.
  EXPECT_EQ(engine.seen().total(), 0u);
  EXPECT_TRUE(engine.explored_selections().empty());
}

// ---------------------------------------------------------- cancelled ---

TEST(EngineRobustnessTest, PreCancelledTokenCommitsNothing) {
  auto db = MakeTinyRestaurantDb();
  SdeEngine engine(db.get(), SmallConfig());

  StepOptions options;
  options.token.RequestCancel();
  StepResult result = engine.ExecuteStep(GroupSelection{}, options);

  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.maps.empty());
  EXPECT_TRUE(result.recommendations.empty());
  EXPECT_EQ(engine.seen().total(), 0u);
  EXPECT_TRUE(engine.explored_selections().empty());

  // The engine is fully usable after a cancelled step.
  StepResult ok = engine.ExecuteStep(GroupSelection{}, true);
  EXPECT_FALSE(ok.cancelled);
  EXPECT_FALSE(ok.maps.empty());
  EXPECT_EQ(engine.seen().total(), ok.maps.size());
}

TEST(EngineRobustnessTest, CancellationMidFlightLeavesHistoryConsistent) {
  auto db = MakeRandomDb(80, 25, 4000, 3, 11);
  SdeEngine engine(db.get(), SmallConfig());

  // Cancel from another thread while steps run. Whether any given step
  // wins the race is scheduling-dependent; the invariants are not.
  for (int round = 0; round < 8; ++round) {
    const size_t seen_before = engine.seen().total();
    const size_t explored_before = engine.explored_selections().size();

    StepOptions options;
    CancellationToken token = options.token;
    std::thread canceller([token]() mutable { token.RequestCancel(); });
    StepResult result = engine.ExecuteStep(GroupSelection{}, options);
    canceller.join();

    if (result.cancelled) {
      EXPECT_TRUE(result.maps.empty());
      EXPECT_TRUE(result.recommendations.empty());
      EXPECT_EQ(engine.seen().total(), seen_before);
      EXPECT_EQ(engine.explored_selections().size(), explored_before);
    } else {
      // Committed: the history grew by exactly the displayed maps.
      EXPECT_EQ(engine.seen().total(), seen_before + result.maps.size());
    }
  }
}

// ---------------------------------------------------- tiny deadlines ----

TEST(EngineRobustnessTest, TinyDeadlinesAlwaysYieldValidResults) {
  auto db = MakeRandomDb(100, 30, 6000, 3, 13);
  EngineConfig config = SmallConfig();
  SdeEngine engine(db.get(), config);

  // Sweep budgets from "hopeless" to "comfortable". Every result must be
  // structurally valid regardless of where the deadline lands.
  for (double budget_ms : {0.01, 0.1, 0.5, 2.0, 10.0, 1000.0}) {
    StepOptions options;
    options.deadline = Deadline::FromNowMs(budget_ms);
    const size_t seen_before = engine.seen().total();
    StepResult result = engine.ExecuteStep(GroupSelection{}, options);

    EXPECT_FALSE(result.cancelled);
    EXPECT_LE(result.maps.size(), config.k);
    // Degradation bookkeeping is consistent: a cut phase implies the
    // degraded flag and vice versa.
    EXPECT_EQ(result.degraded, result.cut_phase != StepPhase::kNone);
    // No phase at or after the cut ran to completion.
    if (result.cut_phase != StepPhase::kNone) {
      for (const StepTrace::PhaseSpan& span : result.trace.spans) {
        EXPECT_FALSE(span.phase >= result.cut_phase && span.completed)
            << StepPhaseName(span.phase) << " completed after a cut at "
            << StepPhaseName(result.cut_phase);
      }
    }
    if (result.cut_phase == StepPhase::kMaterialize) {
      // Expired on arrival: no group, no maps, no recommendations.
      EXPECT_EQ(result.group_size, 0u);
      EXPECT_TRUE(result.maps.empty());
      EXPECT_TRUE(result.recommendations.empty());
    }
    // Recommendations only exist when display maps were produced (they
    // are ranked against the updated history).
    if (!result.recommendations.empty()) {
      EXPECT_FALSE(result.maps.empty());
    }
    // Whatever was displayed is exactly what entered the history.
    EXPECT_EQ(engine.seen().total(), seen_before + result.maps.size());
  }
}

// ----------------------------------------------- unbudgeted semantics ---

TEST(EngineRobustnessTest, GenerousDeadlineMatchesClassicStep) {
  auto db = MakeRandomDb(60, 20, 2000, 3, 17);
  SdeEngine classic(db.get(), SmallConfig());
  SdeEngine budgeted(db.get(), SmallConfig());

  StepResult a = classic.ExecuteStep(GroupSelection{}, true);

  StepOptions options;
  options.deadline = Deadline::FromNowMs(60'000);
  StepResult b = budgeted.ExecuteStep(GroupSelection{}, options);

  EXPECT_FALSE(b.degraded);
  EXPECT_FALSE(b.cancelled);
  EXPECT_EQ(b.cut_phase, StepPhase::kNone);
  EXPECT_EQ(MapKeys(a.maps, *db), MapKeys(b.maps, *db));
  ASSERT_EQ(a.recommendations.size(), b.recommendations.size());
  for (size_t i = 0; i < a.recommendations.size(); ++i) {
    EXPECT_TRUE(a.recommendations[i].operation.target ==
                b.recommendations[i].operation.target);
  }
}

TEST(EngineRobustnessTest, BoolOverloadForwardsToOptions) {
  auto db = MakeTinyRestaurantDb();
  SdeEngine via_bool(db.get(), SmallConfig());
  SdeEngine via_options(db.get(), SmallConfig());

  StepResult a = via_bool.ExecuteStep(GroupSelection{}, false);
  StepOptions options;
  options.with_recommendations = false;
  StepResult b = via_options.ExecuteStep(GroupSelection{}, options);

  EXPECT_FALSE(a.degraded);
  EXPECT_FALSE(b.degraded);
  EXPECT_TRUE(a.recommendations.empty());
  EXPECT_TRUE(b.recommendations.empty());
  EXPECT_EQ(MapKeys(a.maps, *db), MapKeys(b.maps, *db));
}

// -------------------------------------------------------- concurrency ---

TEST(EngineRobustnessTest, ConcurrentStepsResetsAndCancelsAreSafe) {
  // Exercises the TSan-audited triangle: ExecuteStep committing history,
  // ResetHistory wiping it, and a cancellation token flipping mid-step.
  // Correctness here is "no data race, no crash, invariants hold" — the
  // interleaving itself is intentionally wild.
  auto db = MakeRandomDb(60, 20, 1500, 2, 19);
  SdeEngine engine(db.get(), SmallConfig());

  std::atomic<bool> running{true};
  std::thread resetter([&] {
    while (running.load()) {
      engine.ResetHistory();
      std::this_thread::yield();
    }
  });

  auto stepper = [&](uint64_t salt) {
    for (int i = 0; i < 12; ++i) {
      StepOptions options;
      if (i % 2 == 0) {
        options.deadline = Deadline::FromNowMs(static_cast<double>(
            (i + salt) % 5));
      }
      CancellationToken token = options.token;
      std::thread canceller([token, i]() mutable {
        if (i % 3 == 0) token.RequestCancel();
      });
      StepResult result = engine.ExecuteStep(GroupSelection{}, options);
      canceller.join();
      EXPECT_LE(result.maps.size(), SmallConfig().k);
      if (result.cancelled) {
        EXPECT_TRUE(result.maps.empty());
        EXPECT_TRUE(result.recommendations.empty());
      }
    }
  };
  std::thread s1(stepper, 1);
  std::thread s2(stepper, 2);
  s1.join();
  s2.join();
  running.store(false);
  resetter.join();

  // The engine still works after the storm.
  StepResult final = engine.ExecuteStep(GroupSelection{}, true);
  EXPECT_FALSE(final.maps.empty());
}

}  // namespace
}  // namespace subdex
