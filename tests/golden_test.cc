// End-to-end determinism golden test (label: `golden`).
//
// Runs a fixed-seed 5-step exploration session on a small MovieLens-shaped
// dataset (Table 2 spec, scaled down) with a single-threaded engine and
// compares its serialization byte-for-byte against tests/golden/
// movielens_session.txt. The file holds, in order:
//
//   outputs     what each step showed: its digest (16 hex digits), the
//               displayed map keys and the recommendation targets;
//   step lines  each step's trace as JSON (StepTraceJson, timings
//               excluded — wall clock is the one run-dependent part): the
//               work done;
//   counters    the counters of the metrics registry.
//
// A change that only saves work moves trace and counter lines; a change
// to what the user sees moves output lines. The session is executed twice
// in-process and must serialize identically both times before the file
// comparison happens.
//
// Regenerating the golden file after an intentional behaviour change:
//
//   SUBDEX_REGEN_GOLDEN=1 ./build/tests/golden_test
//
// which rewrites tests/golden/movielens_session.txt in the source tree;
// review the diff like any other code change.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "datagen/specs.h"
#include "datagen/synthetic.h"
#include "engine/sde_engine.h"
#include "util/metrics.h"

namespace subdex {
namespace {

constexpr uint64_t kDatasetSeed = 7;

std::string GoldenPath() {
  return std::string(SUBDEX_GOLDEN_DIR) + "/movielens_session.txt";
}

EngineConfig GoldenConfig() {
  EngineConfig config;
  config.num_threads = 1;  // fully serial: byte-identical runs
  config.operations.max_candidates = 40;
  config.max_operation_evaluations = 10;
  config.min_group_size = 2;
  return config;
}

// One 5-step session: start from the whole database, then follow the top
// recommendation (falling back to the root when a step returns none).
std::string RunSession(const SubjectiveDatabase& db) {
  MetricsRegistry::Global().ResetForTest();
  SdeEngine engine(&db, GoldenConfig());
  std::ostringstream outputs;
  std::ostringstream trace;
  GroupSelection selection;
  for (int step = 1; step <= 5; ++step) {
    StepResult result = engine.ExecuteStep(selection, true);
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, result.digest);
    outputs << "step " << step << " digest " << digest << '\n';
    for (const ScoredRatingMap& m : result.maps) {
      outputs << "  map " << m.map.key().ToString(db) << '\n';
    }
    for (const Recommendation& r : result.recommendations) {
      outputs << "  recommendation " << r.operation.target.ToString(db)
              << '\n';
    }
    trace << "step " << step << ' '
          << StepTraceJson(result, /*include_timings=*/false) << '\n';
    selection = result.recommendations.empty()
                    ? GroupSelection{}
                    : result.recommendations.front().operation.target;
  }
  std::ostringstream out;
  out << "outputs\n" << outputs.str() << trace.str();
  out << "counters\n";
  MetricsSnapshot snap = engine.MetricsSnapshot();
  for (const MetricsSnapshot::CounterSample& c : snap.counters) {
    out << c.name << ' ' << c.value << '\n';
  }
  return out.str();
}

TEST(GoldenSessionTest, FixedSeedSessionMatchesCommittedGolden) {
  auto db = GenerateDataset(MovielensSpec().Scaled(0.02), kDatasetSeed);

  std::string first = RunSession(*db);
  std::string second = RunSession(*db);
  // Determinism gate: two consecutive runs must serialize identically
  // before any comparison with the committed file makes sense.
  ASSERT_EQ(first, second);

  if (std::getenv("SUBDEX_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << GoldenPath();
    out << first;
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in) << "missing golden file " << GoldenPath()
                  << " — regenerate with SUBDEX_REGEN_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(first, golden.str())
      << "golden mismatch; if the change is intentional, regenerate with "
         "SUBDEX_REGEN_GOLDEN=1 and review the diff";
}

}  // namespace
}  // namespace subdex
