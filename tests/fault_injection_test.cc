// Fault-injection sweep: arms every registered fault point in turn and
// asserts that the engine survives each failure with its invariants
// intact — the strong exception guarantee on the history, Status
// propagation on the I/O layer, and full usability afterwards. Only built
// when cmake is configured with -DSUBDEX_FAULT_INJECTION=ON (ci/check.sh
// runs this under ASan).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/sde_engine.h"
#include "server/server.h"
#include "server/session_journal.h"
#include "subjective/db_io.h"
#include "tests/test_support.h"
#include "util/fault_point.h"

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
  config.operations.max_candidates = 40;
  config.num_threads = 2;
  return config;
}

// Drives every fault point at least once so RegisteredPoints() is the
// complete catalog: an engine step with recommendations (thread pool,
// group cache), a save/load round trip (db_io), and a journaled session
// (append, fsync, rotation).
void DiscoverAllFaultPoints() {
  FaultInjector::Instance().Reset();
  auto db = MakeRandomDb(40, 15, 600, 2, 23);
  SdeEngine engine(db.get(), SmallConfig());
  engine.ExecuteStep(GroupSelection{}, true);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "subdex_fault_discovery")
          .string();
  ASSERT_TRUE(SaveDatabase(*db, dir).ok());
  auto loaded = LoadDatabase(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::filesystem::remove_all(dir);

  JournalConfig journal;
  journal.dir = (std::filesystem::temp_directory_path() /
                 "subdex_fault_discovery_journal")
                    .string();
  journal.fsync = JournalFsync::kEveryRecord;  // hits journal.fsync
  journal.segment_bytes = 1;  // second append must rotate
  std::filesystem::remove_all(journal.dir);
  ASSERT_TRUE(std::filesystem::create_directories(journal.dir));
  auto started = SessionJournal::Start(journal, "discovery");
  ASSERT_TRUE(started.ok()) << started.status().message();
  std::unique_ptr<SessionJournal> session_journal =
      std::move(started).value();
  ASSERT_TRUE(session_journal->Append(MakeResetRecord()).ok());
  ASSERT_TRUE(session_journal->Append(MakeResetRecord()).ok());
  ASSERT_TRUE(session_journal->EraseFiles().ok());
  std::filesystem::remove_all(journal.dir);
}

TEST(FaultInjectionTest, CatalogContainsEveryDeclaredPoint) {
  DiscoverAllFaultPoints();
  std::vector<std::string> points = FaultInjector::Instance().RegisteredPoints();
  for (const char* expected :
       {"thread_pool.chunk", "group_cache.load", "db_io.parse_manifest",
        "db_io.load_ratings", "db_io.save", "journal.append",
        "journal.fsync", "journal.rotate"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), expected), points.end())
        << "fault point never hit during discovery: " << expected;
  }
}

// The sweep itself: for each discovered point, arm it with certainty and
// run the full workload. Whatever the failure mode (thrown from a pool
// worker, thrown from the cache leader, error Status from I/O), the
// engine's history must be exactly what the successful pre-fault steps
// left, and the engine must work normally once the point is disarmed.
TEST(FaultInjectionTest, SweepEveryPointPreservesEngineInvariants) {
  DiscoverAllFaultPoints();
  std::vector<std::string> points = FaultInjector::Instance().RegisteredPoints();
  ASSERT_FALSE(points.empty());

  for (const std::string& point : points) {
    SCOPED_TRACE("armed point: " + point);
    FaultInjector::Instance().Reset();

    auto db = MakeRandomDb(40, 15, 600, 2, 29);
    SdeEngine engine(db.get(), SmallConfig());

    // One clean step first, so the armed run has committed history to
    // corrupt if the exception guarantee were broken.
    StepResult clean = engine.ExecuteStep(GroupSelection{}, true);
    ASSERT_FALSE(clean.maps.empty());
    const size_t seen_before = engine.seen().total();
    const auto explored_before = engine.explored_selections();

    FaultInjector::Instance().Arm(point, {});

    // Engine-path points fail the step with an exception; I/O-path points
    // don't sit on the step path at all. Either way the history must be
    // byte-identical afterwards.
    GroupSelection other;
    other.reviewer_pred = Predicate({{0, 0}});
    bool threw = false;
    try {
      engine.ExecuteStep(other, true);
    } catch (const FaultInjectedError&) {
      threw = true;
    }
    if (threw) {
      EXPECT_EQ(engine.seen().total(), seen_before);
      EXPECT_EQ(engine.explored_selections().size(), explored_before.size());
    }

    // I/O-layer points surface as non-OK Status, never as exceptions.
    const std::string dir =
        (std::filesystem::temp_directory_path() / ("subdex_sweep_" + point))
            .string();
    Status save = SaveDatabase(*db, dir);
    if (save.ok()) {
      auto loaded = LoadDatabase(dir);
      if (!loaded.ok()) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
      }
    } else {
      EXPECT_EQ(save.code(), StatusCode::kIoError);
    }
    std::filesystem::remove_all(dir);

    // Disarmed, the engine (same instance that just survived the fault)
    // completes the previously failing step and commits it. Points off the
    // step path (e.g. db_io) let the armed step commit too, so measure
    // from the current history, not from before the armed step.
    FaultInjector::Instance().Disarm(point);
    const size_t seen_mid = engine.seen().total();
    StepResult after = engine.ExecuteStep(other, true);
    EXPECT_FALSE(after.maps.empty());
    EXPECT_EQ(engine.seen().total(), seen_mid + after.maps.size());
  }
  FaultInjector::Instance().Reset();
}

TEST(FaultInjectionTest, GroupCacheWaitersObserveLeaderFailureWithoutHang) {
  FaultInjector::Instance().Reset();
  auto db = MakeRandomDb(40, 15, 600, 2, 31);
  RatingGroupCache cache(db.get(), 8);

  // Fire exactly once: the single-flight leader fails, every coalesced
  // waiter rethrows, and the next Get for the same key succeeds.
  FaultInjector::Instance().Arm("group_cache.load", {});
  EXPECT_THROW(cache.Get(GroupSelection{}), FaultInjectedError);
  FaultInjector::Instance().Disarm("group_cache.load");
  RatingGroup group = cache.Get(GroupSelection{});
  EXPECT_EQ(group.size(), db->num_records());
  FaultInjector::Instance().Reset();
}

TEST(FaultInjectionTest, InjectedDelayForcesDeadlineDegradation) {
  FaultInjector::Instance().Reset();
  auto db = MakeRandomDb(40, 15, 600, 2, 37);
  SdeEngine engine(db.get(), SmallConfig());

  // Delay-only arm: the pool chunk sleeps past the deadline instead of
  // failing, so the step must degrade deterministically, not throw.
  FaultInjector::ArmSpec delay;
  delay.fail = false;
  delay.delay_ms = 30.0;
  FaultInjector::Instance().Arm("thread_pool.chunk", delay);

  StepOptions options;
  options.deadline = Deadline::FromNowMs(10.0);
  StepResult result = engine.ExecuteStep(GroupSelection{}, options);
  EXPECT_TRUE(result.degraded);
  EXPECT_NE(result.cut_phase, StepPhase::kNone);
  EXPECT_FALSE(result.cancelled);
  // Displayed best-effort maps are committed, as for any degraded step.
  EXPECT_EQ(engine.seen().total(), result.maps.size());
  FaultInjector::Instance().Reset();
}

// Each journal fault point, fired through the server's routing core,
// must degrade exactly one session to read-only (503 + Retry-After on
// mutations) while reads, other routes, and DELETE keep working — and
// must never take the process down.
TEST(FaultInjectionTest, JournalFaultsLatchReadOnlyAndNeverKillTheServer) {
  for (const char* point :
       {"journal.append", "journal.fsync", "journal.rotate"}) {
    SCOPED_TRACE(std::string("armed point: ") + point);
    FaultInjector::Instance().Reset();
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         (std::string("subdex_journal_fault_") + point))
            .string();
    std::filesystem::remove_all(dir);

    SubdexServer::Options options;
    options.engine.min_group_size = 1;
    options.journal.dir = dir;
    // every_record puts fsync on the step path; segment_bytes=1 puts
    // rotation there too (every post-create append overflows).
    options.journal.fsync = JournalFsync::kEveryRecord;
    options.journal.segment_bytes = 1;
    SubdexServer server(options);
    ASSERT_TRUE(
        server.RegisterDataset("tiny", MakeTinyRestaurantDb()).ok());
    ASSERT_TRUE(server.Start().ok());
    CancellationToken token;
    auto call = [&](const std::string& method, const std::string& target) {
      HttpRequest request;
      request.method = method;
      request.target = target;
      request.body = "{}";
      return server.Handle(request, token);
    };

    HttpResponse created = call("POST", "/sessions");
    ASSERT_EQ(created.status, 201) << created.body;
    auto body = JsonValue::Parse(created.body);
    ASSERT_TRUE(body.ok());
    const std::string id = body.value().Find("session_id")->str();

    FaultInjector::Instance().Arm(point, {});
    HttpResponse failed = call("POST", "/sessions/" + id + "/step");
    EXPECT_EQ(failed.status, 503) << failed.body;
    bool has_retry_after = false;
    for (const auto& [name, value] : failed.extra_headers) {
      if (name == "Retry-After" && !value.empty()) has_retry_after = true;
    }
    EXPECT_TRUE(has_retry_after);
    EXPECT_GE(FaultInjector::Instance().FireCount(point), 1u);

    // Disarming does not unlatch: the journal may hold a torn record, so
    // the session stays read-only while everything else keeps serving.
    FaultInjector::Instance().Disarm(point);
    EXPECT_EQ(call("POST", "/sessions/" + id + "/step").status, 503);
    EXPECT_EQ(call("GET", "/sessions/" + id).status, 200);
    EXPECT_EQ(call("GET", "/healthz").status, 200);
    HttpResponse fresh = call("POST", "/sessions");
    EXPECT_EQ(fresh.status, 201) << fresh.body;
    EXPECT_EQ(call("DELETE", "/sessions/" + id).status, 200);

    server.Stop();
    std::filesystem::remove_all(dir);
  }
  FaultInjector::Instance().Reset();
}

TEST(FaultInjectionTest, DeterministicScheduleHonorsAfterHitsAndSeed) {
  FaultInjector::Instance().Reset();
  auto db = MakeTinyRestaurantDb();

  FaultInjector::ArmSpec spec;
  spec.after_hits = 2;
  FaultInjector::Instance().Arm("db_io.save", spec);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "subdex_sched").string();
  EXPECT_TRUE(SaveDatabase(*db, dir).ok());   // hit 1: skipped
  EXPECT_TRUE(SaveDatabase(*db, dir).ok());   // hit 2: skipped
  EXPECT_FALSE(SaveDatabase(*db, dir).ok());  // hit 3: fires
  EXPECT_EQ(FaultInjector::Instance().FireCount("db_io.save"), 1u);
  EXPECT_EQ(FaultInjector::Instance().HitCount("db_io.save"), 3u);

  // Same seed + probability => same fire pattern on a fresh arm.
  auto pattern = [&](uint64_t seed) {
    FaultInjector::ArmSpec p;
    p.probability = 0.5;
    p.seed = seed;
    FaultInjector::Instance().Arm("db_io.save", p);
    std::string bits;
    for (int i = 0; i < 16; ++i) {
      bits += SaveDatabase(*db, dir).ok() ? '0' : '1';
    }
    return bits;
  };
  std::string a = pattern(99);
  std::string b = pattern(99);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, std::string(16, '0'));
  EXPECT_NE(a, std::string(16, '1'));
  std::filesystem::remove_all(dir);
  FaultInjector::Instance().Reset();
}

}  // namespace
}  // namespace subdex
