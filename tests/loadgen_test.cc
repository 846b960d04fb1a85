// Load-harness tests: the LatencyRecorder bucket ladder against a
// reference classification, the BENCH_load_trajectory.json report
// round-trip and validator, the committed schema golden
// (tests/golden/bench_load_trajectory.json — regenerate with
// SUBDEX_REGEN_GOLDEN=1 and review the diff), and the driver itself
// against both targets: in-process engine sessions and a live in-process
// subdexd over real sockets.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen/driver.h"
#include "loadgen/latency_recorder.h"
#include "loadgen/report.h"
#include "loadgen/workload.h"
#include "server/server.h"
#include "tests/test_support.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/random.h"

namespace subdex::loadgen {
namespace {

// ---------------------------------------------------------------------------
// LatencyRecorder

TEST(LatencyRecorderTest, EmptyRecorder) {
  LatencyRecorder recorder;
  EXPECT_EQ(recorder.count(), 0u);
  EXPECT_EQ(recorder.sum_ms(), 0.0);
  EXPECT_EQ(recorder.mean_ms(), 0.0);
  EXPECT_EQ(recorder.max_ms(), 0.0);
  EXPECT_TRUE(std::isnan(recorder.ValueAtQuantile(0.5)));
}

TEST(LatencyRecorderTest, BoundsAreAGeometricLadder) {
  const std::vector<double>& bounds = LatencyRecorder::Bounds();
  ASSERT_GT(bounds.size(), 100u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.05);
  EXPECT_LT(bounds.back(), 130000.0);
  EXPECT_GE(bounds.back(), 65000.0);  // covers at least ~1 minute
  const double ratio = std::exp2(1.0 / 8.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_NEAR(bounds[i] / bounds[i - 1], ratio, 1e-9) << "at " << i;
  }
}

// Reference classification: value v belongs in the first bucket whose
// upper bound is >= v (HistogramQuantile's le-bound layout), values past
// the last bound in the overflow bucket. The recorder's O(1) log2 index
// must agree with this linear scan for every value.
std::vector<uint64_t> ReferenceCounts(const std::vector<double>& values) {
  const std::vector<double>& bounds = LatencyRecorder::Bounds();
  std::vector<uint64_t> counts(bounds.size() + 1, 0);
  for (double v : values) {
    if (!(v >= 0)) v = 0.0;  // the recorder clamps NaN and negatives
    size_t i = 0;
    while (i < bounds.size() && v > bounds[i]) ++i;
    ++counts[i];
  }
  return counts;
}

TEST(LatencyRecorderTest, BucketPlacementMatchesReferenceScan) {
  Rng rng(20260808);
  std::vector<double> values;
  // Log-uniform over the full ladder plus the edges that bite: exact
  // bucket bounds, just-above/just-below a bound, underflow, overflow.
  for (int i = 0; i < 4000; ++i) {
    double exponent = -5.0 + 23.0 * rng.UniformDouble();  // ~0.03 .. ~260k ms
    values.push_back(std::exp2(exponent));
  }
  const std::vector<double>& bounds = LatencyRecorder::Bounds();
  for (size_t i = 0; i < bounds.size(); i += 7) {
    values.push_back(bounds[i]);
    values.push_back(std::nextafter(bounds[i], 0.0));
    values.push_back(std::nextafter(bounds[i], 1e30));
  }
  values.insert(values.end(), {0.0, 0.01, 0.05, 1e9});

  LatencyRecorder recorder;
  double sum = 0.0, max = 0.0;
  for (double v : values) {
    recorder.Observe(v);
    sum += v;
    max = std::max(max, v);
  }
  EXPECT_EQ(recorder.count(), values.size());
  EXPECT_NEAR(recorder.sum_ms(), sum, sum * 1e-9);
  EXPECT_DOUBLE_EQ(recorder.max_ms(), max);
  EXPECT_EQ(recorder.BucketCounts(), ReferenceCounts(values));
}

TEST(LatencyRecorderTest, ClampsNegativeAndNanToZero) {
  LatencyRecorder recorder;
  recorder.Observe(-3.5);
  recorder.Observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(recorder.count(), 2u);
  EXPECT_EQ(recorder.max_ms(), 0.0);
  std::vector<uint64_t> counts = recorder.BucketCounts();
  EXPECT_EQ(counts[0], 2u);  // both clamped into the first bucket
}

TEST(LatencyRecorderTest, QuantileStaysWithinTheObservedBucket) {
  // One repeated value: any quantile must interpolate inside that value's
  // bucket, i.e. within one bucket ratio (~9%) of the true value.
  LatencyRecorder recorder;
  for (int i = 0; i < 100; ++i) recorder.Observe(10.0);
  const double ratio = std::exp2(1.0 / 8.0);
  for (double q : {0.5, 0.95, 0.99, 1.0}) {
    double estimate = recorder.ValueAtQuantile(q);
    EXPECT_GE(estimate, 10.0 / ratio - 1e-9) << "q=" << q;
    EXPECT_LE(estimate, 10.0 * ratio + 1e-9) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(recorder.max_ms(), 10.0);
}

TEST(LatencyRecorderTest, QuantilesNeverExceedTheExactMax) {
  // Three values in one bucket: uncapped interpolation puts p99 near the
  // bucket's upper edge (10.755), above the largest value observed.
  LatencyRecorder recorder;
  for (double v : {10.0, 10.1, 10.2}) recorder.Observe(v);
  EXPECT_DOUBLE_EQ(recorder.max_ms(), 10.2);
  EXPECT_LE(recorder.ValueAtQuantile(0.95), recorder.max_ms());
  EXPECT_LE(recorder.ValueAtQuantile(0.99), recorder.max_ms());
  EXPECT_LE(recorder.ValueAtQuantile(0.5), recorder.ValueAtQuantile(0.99));
}

TEST(LatencyRecorderTest, ConcurrentObservesLoseNothing) {
  LatencyRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Observe(0.1 * (t + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(recorder.count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(recorder.max_ms(), 0.4);
  uint64_t total = 0;
  for (uint64_t c : recorder.BucketCounts()) total += c;
  EXPECT_EQ(total, recorder.count());
}

// ---------------------------------------------------------------------------
// Report round-trip + validation

TrajectoryPoint MakeValidPoint() {
  TrajectoryPoint point;
  point.target = "engine";
  point.dataset = "Movielens(x0.05)";
  point.scale = 5000;
  point.loop = "closed";
  point.concurrency = 8;
  point.steps_per_session = 4;
  point.think_time_mean_ms = 250.0;
  point.step_deadline_ms = 150.0;
  point.repeats = 3;
  point.wall_s = 1.25;
  point.sessions_started = 8;
  point.sessions_completed = 8;
  point.steps_attempted = 32;
  point.steps_ok = 32;
  point.steps_failed = 0;
  point.degraded_fraction = 0.03125;
  point.cancelled_fraction = 0.0;
  point.latency_ms = {12.5, 31.0, 44.5, 52.0, 15.75};
  point.steps_per_s = 25.6;
  point.shed_429 = 0;
  point.shed_503 = 0;
  point.transport_errors = 0;
  point.arrivals_dropped = 0;
  point.cache = {96, 32};
  return point;
}

TrajectoryReport MakeValidReport() {
  TrajectoryReport report;
  report.seed = 42;
  report.notes = "unit fixture";
  report.points.push_back(MakeValidPoint());
  TrajectoryPoint server = MakeValidPoint();
  server.target = "server";
  server.loop = "open";
  server.concurrency = 16;
  server.arrivals_dropped = 5;
  server.shed_429 = 3;
  report.points.push_back(server);
  return report;
}

TEST(ReportTest, JsonRoundTripPreservesEveryField) {
  TrajectoryReport report = MakeValidReport();
  auto parsed = ParseReport(ReportToJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const TrajectoryReport& back = parsed.value();
  EXPECT_EQ(back.seed, report.seed);
  EXPECT_EQ(back.notes, report.notes);
  ASSERT_EQ(back.points.size(), report.points.size());
  for (size_t i = 0; i < report.points.size(); ++i) {
    const TrajectoryPoint& a = report.points[i];
    const TrajectoryPoint& b = back.points[i];
    EXPECT_EQ(b.target, a.target);
    EXPECT_EQ(b.dataset, a.dataset);
    EXPECT_EQ(b.scale, a.scale);
    EXPECT_EQ(b.loop, a.loop);
    EXPECT_EQ(b.concurrency, a.concurrency);
    EXPECT_EQ(b.steps_per_session, a.steps_per_session);
    EXPECT_DOUBLE_EQ(b.think_time_mean_ms, a.think_time_mean_ms);
    EXPECT_DOUBLE_EQ(b.step_deadline_ms, a.step_deadline_ms);
    EXPECT_EQ(b.repeats, a.repeats);
    EXPECT_DOUBLE_EQ(b.wall_s, a.wall_s);
    EXPECT_EQ(b.sessions_started, a.sessions_started);
    EXPECT_EQ(b.sessions_completed, a.sessions_completed);
    EXPECT_EQ(b.steps_attempted, a.steps_attempted);
    EXPECT_EQ(b.steps_ok, a.steps_ok);
    EXPECT_EQ(b.steps_failed, a.steps_failed);
    EXPECT_DOUBLE_EQ(b.degraded_fraction, a.degraded_fraction);
    EXPECT_DOUBLE_EQ(b.cancelled_fraction, a.cancelled_fraction);
    EXPECT_DOUBLE_EQ(b.latency_ms.p50, a.latency_ms.p50);
    EXPECT_DOUBLE_EQ(b.latency_ms.p95, a.latency_ms.p95);
    EXPECT_DOUBLE_EQ(b.latency_ms.p99, a.latency_ms.p99);
    EXPECT_DOUBLE_EQ(b.latency_ms.max, a.latency_ms.max);
    EXPECT_DOUBLE_EQ(b.latency_ms.mean, a.latency_ms.mean);
    EXPECT_DOUBLE_EQ(b.steps_per_s, a.steps_per_s);
    EXPECT_EQ(b.shed_429, a.shed_429);
    EXPECT_EQ(b.shed_503, a.shed_503);
    EXPECT_EQ(b.transport_errors, a.transport_errors);
    EXPECT_EQ(b.arrivals_dropped, a.arrivals_dropped);
    EXPECT_EQ(b.cache.hits, a.cache.hits);
    EXPECT_EQ(b.cache.misses, a.cache.misses);
  }
}

TEST(ReportTest, ParseRejectsWrongSchemaAndVersion) {
  std::string good = ReportToJson(MakeValidReport());
  EXPECT_FALSE(ParseReport("not json at all").ok());
  EXPECT_FALSE(ParseReport("[]").ok());

  std::string wrong_schema = good;
  size_t at = wrong_schema.find(kReportSchema);
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, std::string(kReportSchema).size(), "other-schema");
  EXPECT_FALSE(ParseReport(wrong_schema).ok());

  std::string wrong_version = good;
  at = wrong_version.find("\"schema_version\":1");
  ASSERT_NE(at, std::string::npos);
  wrong_version.replace(at, 18, "\"schema_version\":99");
  EXPECT_FALSE(ParseReport(wrong_version).ok());
}

TEST(ReportTest, ParseNamesTheMissingField) {
  TrajectoryReport report = MakeValidReport();
  std::string json = ReportToJson(report);
  size_t at = json.find("\"steps_ok\"");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, 10, "\"steps_oops\"");
  auto parsed = ParseReport(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("steps_ok"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ReportTest, ValidateAcceptsTheFixture) {
  TrajectoryReport report = MakeValidReport();
  EXPECT_TRUE(ValidateReport(report).ok());
  EXPECT_TRUE(ValidateReport(report, /*smoke=*/true).ok());
}

TEST(ReportTest, ValidateRejectsStructuralNonsense) {
  {
    TrajectoryReport report;  // no points
    report.seed = 1;
    EXPECT_FALSE(ValidateReport(report).ok());
  }
  {
    TrajectoryReport report = MakeValidReport();
    report.points[0].target = "mainframe";
    EXPECT_FALSE(ValidateReport(report).ok());
  }
  {
    TrajectoryReport report = MakeValidReport();
    report.points[0].loop = "sideways";
    EXPECT_FALSE(ValidateReport(report).ok());
  }
  {
    TrajectoryReport report = MakeValidReport();
    report.points[0].concurrency = 0;
    EXPECT_FALSE(ValidateReport(report).ok());
  }
  {
    TrajectoryReport report = MakeValidReport();
    report.points[0].steps_ok = report.points[0].steps_attempted + 1;
    EXPECT_FALSE(ValidateReport(report).ok());
  }
  {
    TrajectoryReport report = MakeValidReport();
    report.points[0].degraded_fraction = 1.5;
    EXPECT_FALSE(ValidateReport(report).ok());
  }
  {
    TrajectoryReport report = MakeValidReport();
    // Non-monotone quantiles: p50 above p95.
    report.points[0].latency_ms.p50 = 100.0;
    EXPECT_FALSE(ValidateReport(report).ok());
  }
  {
    TrajectoryReport report = MakeValidReport();
    report.points[0].latency_ms.p99 =
        -std::numeric_limits<double>::infinity();
    EXPECT_FALSE(ValidateReport(report).ok());
  }
  {
    TrajectoryReport report = MakeValidReport();
    // A tail quantile above the exact maximum.
    report.points[0].latency_ms.p99 = report.points[0].latency_ms.max + 1.0;
    EXPECT_FALSE(ValidateReport(report).ok());
  }
  {
    TrajectoryReport report = MakeValidReport();
    // Steps succeeded but the latency summary claims nothing was measured.
    report.points[0].latency_ms = {};
    EXPECT_FALSE(ValidateReport(report).ok());
  }
}

TEST(ReportTest, SmokeModeIsStricter) {
  TrajectoryReport report = MakeValidReport();
  report.points[0].steps_ok = 0;
  report.points[0].steps_failed = report.points[0].steps_attempted;
  report.points[0].latency_ms = {};
  report.points[0].steps_per_s = 0.0;
  EXPECT_TRUE(ValidateReport(report).ok());
  EXPECT_FALSE(ValidateReport(report, /*smoke=*/true).ok());

  TrajectoryReport cancelled = MakeValidReport();
  cancelled.points[0].concurrency = 1;
  cancelled.points[0].cancelled_fraction = 0.5;
  EXPECT_TRUE(ValidateReport(cancelled).ok());
  EXPECT_FALSE(ValidateReport(cancelled, /*smoke=*/true).ok());
}

TEST(ReportTest, FileRoundTrip) {
  TrajectoryReport report = MakeValidReport();
  std::string path = ::testing::TempDir() + "loadgen_report_roundtrip.json";
  ASSERT_TRUE(WriteReportFile(path, report).ok());
  auto back = ReadReportFile(path);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(ReportToJson(back.value()), ReportToJson(report));
  std::remove(path.c_str());
  EXPECT_FALSE(ReadReportFile(path).ok());  // gone again
}

// ---------------------------------------------------------------------------
// Schema golden: the committed fixture pins the exact wire format. A diff
// here means the schema changed — bump kReportSchemaVersion and regenerate
// with SUBDEX_REGEN_GOLDEN=1, then review the diff.

std::string GoldenPath() {
  return std::string(SUBDEX_GOLDEN_DIR) + "/bench_load_trajectory.json";
}

TEST(ReportTest, GoldenSchemaFixture) {
  const std::string expected = ReportToJson(MakeValidReport());
  const std::string path = GoldenPath();
  if (std::getenv("SUBDEX_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << expected;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << path << " missing — regenerate with SUBDEX_REGEN_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), expected)
      << "BENCH_load_trajectory.json schema drifted: if intended, bump "
         "kReportSchemaVersion, rerun with SUBDEX_REGEN_GOLDEN=1 and "
         "review the diff";
  // The committed fixture must also survive the strict parser + validator.
  auto parsed = ParseReport(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(ValidateReport(parsed.value()).ok());
}

// ---------------------------------------------------------------------------
// Driver against the in-process engine target

std::unique_ptr<SubjectiveDatabase> MakeDriverDb() {
  return testing_support::MakeRandomDb(/*num_reviewers=*/40, /*num_items=*/30,
                                       /*num_ratings=*/600,
                                       /*num_dimensions=*/2, /*seed=*/7);
}

EngineConfig DriverConfig() {
  EngineConfig config;
  config.num_threads = 1;
  config.min_group_size = 1;
  return config;
}

TEST(DriverTest, EngineTargetClosedLoopCompletesEverySession) {
  std::unique_ptr<SubjectiveDatabase> db = MakeDriverDb();
  EngineLoadTarget target(db.get(), DriverConfig(), /*step_deadline_ms=*/0,
                          /*with_recommendations=*/true);
  WorkloadSpec spec;
  spec.mode = LoopMode::kClosed;
  spec.sessions = 4;
  spec.steps_per_session = 3;
  spec.seed = 11;
  LoadRunResult result = RunWorkload(target, spec);
  EXPECT_EQ(result.sessions_started, 4u);
  EXPECT_EQ(result.sessions_completed, 4u);
  EXPECT_EQ(result.steps_attempted, 12u);
  EXPECT_EQ(result.steps_ok, 12u);
  EXPECT_EQ(result.steps_failed, 0u);
  EXPECT_EQ(result.shed_429, 0u);
  EXPECT_EQ(result.transport_errors, 0u);
  ASSERT_NE(result.latency, nullptr);
  EXPECT_EQ(result.latency->count(), 12u);
  EXPECT_GT(result.latency->max_ms(), 0.0);
  EXPECT_GT(result.wall_s, 0.0);
  EXPECT_GT(result.steps_per_s(), 0.0);
#if SUBDEX_METRICS_ENABLED
  EXPECT_EQ(result.counters.engine_steps_total, 12u);
#endif
}

TEST(DriverTest, ClosedLoopScriptsAreSeedDeterministic) {
  std::unique_ptr<SubjectiveDatabase> db = MakeDriverDb();
  EngineLoadTarget target(db.get(), DriverConfig(), 0, true);
  WorkloadSpec spec;
  spec.sessions = 3;
  spec.steps_per_session = 4;
  spec.think_time_mean_ms = 1.0;  // exercises the think-time draw path
  spec.seed = 99;
  spec.record_actions = true;

  LoadRunResult first = RunWorkload(target, spec);
  LoadRunResult second = RunWorkload(target, spec);
  ASSERT_EQ(first.session_scripts.size(), 3u);
  for (const std::string& script : first.session_scripts) {
    EXPECT_FALSE(script.empty());
  }
  EXPECT_EQ(first.session_scripts, second.session_scripts);

  spec.seed = 100;
  LoadRunResult other = RunWorkload(target, spec);
  EXPECT_NE(first.session_scripts, other.session_scripts);
}

TEST(DriverTest, SetMeasurementsCopiesARunIntoAPoint) {
  std::unique_ptr<SubjectiveDatabase> db = MakeDriverDb();
  EngineLoadTarget target(db.get(), DriverConfig(), 0, true);
  WorkloadSpec spec;
  spec.sessions = 2;
  spec.steps_per_session = 2;
  spec.seed = 5;
  LoadRunResult run = RunWorkload(target, spec);

  TrajectoryPoint point;
  point.target = "engine";
  point.dataset = "random";
  point.scale = 600;
  point.loop = "closed";
  point.concurrency = spec.sessions;
  point.steps_per_session = spec.steps_per_session;
  SetMeasurements(&point, run);
  EXPECT_EQ(point.steps_attempted, run.steps_attempted);
  EXPECT_EQ(point.steps_ok, run.steps_ok);
  EXPECT_GT(point.latency_ms.p50, 0.0);
  EXPECT_GT(point.latency_ms.max, 0.0);
  EXPECT_GE(point.latency_ms.p99, point.latency_ms.p50);
  TrajectoryReport report;
  report.seed = spec.seed;
  report.points.push_back(point);
  EXPECT_TRUE(ValidateReport(report, /*smoke=*/true).ok())
      << ValidateReport(report, true).ToString();
}

TEST(DriverTest, OpenLoopRunsAndCountsArrivals) {
  std::unique_ptr<SubjectiveDatabase> db = MakeDriverDb();
  EngineLoadTarget target(db.get(), DriverConfig(), 0, true);
  WorkloadSpec spec;
  spec.mode = LoopMode::kOpen;
  spec.sessions = 2;  // worker slots
  spec.steps_per_session = 2;
  spec.arrivals_per_s = 200.0;
  spec.arrival_window_s = 0.1;
  spec.seed = 21;
  LoadRunResult result = RunWorkload(target, spec);
  EXPECT_GE(result.sessions_started, 1u);
  EXPECT_GE(result.steps_ok, 1u);
  EXPECT_EQ(result.steps_failed, 0u);
  // Admitted sessions run to completion against the engine target, so the
  // books close exactly: every admitted session attempted every step.
  EXPECT_EQ(result.sessions_completed, result.sessions_started);
  EXPECT_EQ(result.steps_attempted,
            result.sessions_started * spec.steps_per_session);
}

// ---------------------------------------------------------------------------
// Driver against a live in-process subdexd over real sockets

class DriverHttpTest : public ::testing::Test {
 protected:
  DriverHttpTest() : server_(MakeOptions()) {
    SUBDEX_CHECK_OK(
        server_.RegisterDataset("tiny", testing_support::MakeTinyRestaurantDb()));
    SUBDEX_CHECK_OK(server_.Start());
  }

  static SubdexServer::Options MakeOptions() {
    SubdexServer::Options options;
    options.http.num_workers = 8;
    options.http.queue_capacity = 128;
    options.sessions.max_sessions = 64;
    options.engine.min_group_size = 1;
    return options;
  }

  SubdexServer server_;
};

TEST_F(DriverHttpTest, ServerTargetClosedLoopCompletesEverySession) {
  HttpClientOptions client;
  client.port = server_.port();
  HttpLoadTarget target(client, "tiny", /*step_deadline_ms=*/0,
                        /*with_recommendations=*/true);
  WorkloadSpec spec;
  spec.sessions = 8;
  spec.steps_per_session = 3;
  spec.seed = 17;
  LoadRunResult result = RunWorkload(target, spec);
  EXPECT_EQ(result.sessions_started, 8u);
  EXPECT_EQ(result.sessions_completed, 8u);
  EXPECT_EQ(result.steps_attempted, 24u);
  EXPECT_EQ(result.steps_ok, 24u) << "failed=" << result.steps_failed
                                  << " transport=" << result.transport_errors
                                  << " shed429=" << result.shed_429;
  ASSERT_NE(result.latency, nullptr);
  EXPECT_EQ(result.latency->count(), 24u);
#if SUBDEX_METRICS_ENABLED
  // /metrics scraping saw the engine work this run generated.
  EXPECT_GE(result.counters.engine_steps_total, 24u);
#endif
}

TEST_F(DriverHttpTest, SessionCapShedsAreCountedNotFatal) {
  HttpClientOptions client;
  client.port = server_.port();
  HttpLoadTarget target(client, "tiny", 0, true);
  WorkloadSpec spec;
  // 80 concurrent sessions against a 64-session cap: some creates answer
  // 429; bounded retries mean most sessions still complete.
  spec.sessions = 80;
  spec.steps_per_session = 2;
  spec.seed = 23;
  LoadRunResult result = RunWorkload(target, spec);
  EXPECT_EQ(result.sessions_started, 80u);
  EXPECT_GE(result.sessions_completed, 1u);
  EXPECT_EQ(result.transport_errors, 0u);
  // Accounting stays closed: every attempted step resolved one way.
  EXPECT_LE(result.steps_ok + result.steps_failed, result.steps_attempted);
}

}  // namespace
}  // namespace subdex::loadgen
