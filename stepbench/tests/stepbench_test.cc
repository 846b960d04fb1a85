// The step benchmark's own tests: short runs of every workload (untraced
// and traced), the recount oracle's ability to reject wrong results, and
// the determinism of the per-session digest chains.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "engine/sde_engine.h"
#include "oracle.h"
#include "workloads.h"

namespace stepbench {
namespace {

using namespace subdex;

std::string WorkDir() {
  const char* dir = std::getenv("STEPBENCH_WORK_DIR");
  return dir != nullptr ? dir : ".bench_work";
}

RunOptions ShortRun(const std::string& workload, uint64_t seed, bool trace) {
  RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.trace = trace;
  options.max_steps = workload == "hotel-ud-journal" ? 45 : 3;
  options.setup_repeats = 2;  // one set-up in a forked child, one here
  options.work_dir = WorkDir();
  return options;
}

class ShortRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShortRunTest, RunsToTheEndWithEveryCheckPassing) {
  for (bool trace : {false, true}) {
    const RunReport report = RunWorkload(ShortRun(GetParam(), 7, trace));
    EXPECT_TRUE(report.correct) << report.error;
    EXPECT_EQ(report.failed, 0u);
    EXPECT_GT(report.completed(), 0u);
    EXPECT_EQ(report.attempted, report.completed());
    for (const Metric& m : EndToEndMetrics(report)) {
      EXPECT_GT(m.value, 0.0) << m.name;
    }
    if (trace) {
      EXPECT_EQ(report.layers.steps, report.completed());
      EXPECT_GT(report.layers.generate_ms, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ShortRunTest,
                         ::testing::ValuesIn(WorkloadNames()));

TEST(DeterminismTest, SameSeedGivesSameDigestChains) {
  for (const std::string& workload : WorkloadNames()) {
    const RunReport a = RunWorkload(ShortRun(workload, 11, false));
    const RunReport b = RunWorkload(ShortRun(workload, 11, false));
    ASSERT_TRUE(a.correct) << a.error;
    ASSERT_TRUE(b.correct) << b.error;
    ASSERT_EQ(a.sessions.size(), b.sessions.size()) << workload;
    ASSERT_FALSE(a.sessions.empty());
    for (size_t i = 0; i < a.sessions.size(); ++i) {
      EXPECT_EQ(a.sessions[i].name, b.sessions[i].name);
      EXPECT_EQ(a.sessions[i].digests, b.sessions[i].digests) << workload;
      EXPECT_EQ(a.sessions[i].distinct_selections,
                b.sessions[i].distinct_selections);
    }
  }
}

TEST(UdRefusalTest, ARefusedStepFailsTheRun) {
  RunOptions options = ShortRun("hotel-ud-journal", 7, false);
  // Above the session-create body's size, below every step body's, so the
  // server answers each step 413.
  options.max_body_bytes = 32;
  const RunReport report = RunWorkload(options);
  EXPECT_FALSE(report.correct);
  EXPECT_EQ(report.attempted, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_NE(report.error.find("session 0 step 0"), std::string::npos)
      << report.error;
}

// A real step on a small dataset, which the oracle accepts; each test then
// alters one field and expects a rejection.
class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeDataset("hotel-ud-journal");
    SdeEngine engine(db_.get(), SessionConfig());
    config_ = engine.config();
    step_ = engine.ExecuteStep(GroupSelection(), true);
    ASSERT_FALSE(step_.maps.empty());
    ASSERT_FALSE(step_.recommendations.empty());
  }

  std::string Check(const StepResult& step) {
    SessionChecker checker(db_.get(), config_);
    return checker.Check(step);
  }

  // Rebuilds the first displayed map with its first subgroup's
  // distribution replaced by `dist`.
  StepResult WithFirstSubgroup(const RatingDistribution& dist) {
    StepResult altered = step_;
    const RatingMap& map = altered.maps[0].map;
    std::vector<Subgroup> subgroups = map.subgroups();
    subgroups[0].dist = dist;
    altered.maps[0].map = RatingMap(map.key(), subgroups, map.overall());
    return altered;
  }

  std::unique_ptr<SubjectiveDatabase> db_;
  EngineConfig config_;
  StepResult step_;
};

TEST_F(OracleTest, AcceptsTheEngineResult) { EXPECT_EQ(Check(step_), ""); }

TEST_F(OracleTest, RejectsAnAlteredSubgroupCount) {
  RatingDistribution dist = step_.maps[0].map.subgroups()[0].dist;
  dist.Add(3);
  const std::string err = Check(WithFirstSubgroup(dist));
  EXPECT_NE(err.find("count"), std::string::npos) << err;
}

TEST_F(OracleTest, RejectsAnAlteredSubgroupAverage) {
  // Same count, one rating moved from the lowest used score to the top.
  const RatingDistribution& original = step_.maps[0].map.subgroups()[0].dist;
  RatingDistribution dist(original.scale());
  int lowest = 0;
  for (int s = 1; s <= original.scale(); ++s) {
    if (lowest == 0 && original.count(s) > 0) lowest = s;
  }
  ASSERT_LT(lowest, original.scale());
  for (int s = 1; s <= original.scale(); ++s) {
    uint64_t n = original.count(s);
    if (s == lowest) --n;
    if (s == original.scale()) ++n;
    if (n > 0) dist.AddCount(s, n);
  }
  ASSERT_EQ(dist.total(), original.total());
  const std::string err = Check(WithFirstSubgroup(dist));
  EXPECT_NE(err.find("average"), std::string::npos) << err;
}

TEST_F(OracleTest, RejectsAnAlteredGroupSize) {
  StepResult altered = step_;
  altered.group_size += 1;
  EXPECT_NE(Check(altered).find("naive count"), std::string::npos);
}

TEST_F(OracleTest, RejectsAnAlteredRecommendationUtility) {
  StepResult altered = step_;
  altered.recommendations[0].utility += 0.25;
  EXPECT_NE(Check(altered), "");
}

TEST_F(OracleTest, RejectsAnAlteredDigest) {
  const std::vector<uint64_t> reference = {step_.digest, 42, 7};
  std::vector<uint64_t> acknowledged = reference;
  EXPECT_EQ(CompareDigests(acknowledged, reference), "");
  acknowledged[0] ^= 1;
  EXPECT_NE(CompareDigests(acknowledged, reference).find("digest"),
            std::string::npos);
  acknowledged = {reference[0], reference[1]};
  EXPECT_NE(CompareDigests(acknowledged, reference), "");
}

}  // namespace
}  // namespace stepbench
