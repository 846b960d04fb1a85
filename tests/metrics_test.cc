#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/group_cache.h"
#include "engine/sde_engine.h"
#include "engine/step_timings.h"
#include "engine/step_trace.h"
#include "tests/test_support.h"

namespace subdex {
namespace {

using testing_support::MakeTinyRestaurantDb;

EngineConfig TinyConfig() {
  EngineConfig config;
  config.k = 2;
  config.o = 2;
  config.l = 2;
  config.min_group_size = 1;
  config.operations.max_candidates = 20;
  config.num_threads = 1;
  return config;
}

// ------------------------------------------------------------ Counter ---

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(5);
  EXPECT_EQ(c.Value(), 6u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// -------------------------------------------------------------- Gauge ---

TEST(GaugeTest, SetAddAndValue) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(42);
  EXPECT_EQ(g.Value(), 42);
  g.Add(-50);
  EXPECT_EQ(g.Value(), -8);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

// ---------------------------------------------------------- Histogram ---

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h(std::vector<double>{1.0, 2.0, 4.0});
  h.Observe(1.0);  // exactly on a bound: belongs to that bucket (le=1)
  h.Observe(1.5);  // le=2
  h.Observe(4.0);  // le=4
  h.Observe(5.0);  // +Inf overflow
  std::vector<uint64_t> buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.TotalCount(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 11.5);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
}

TEST(HistogramTest, DefaultBucketLayoutsAreStrictlyIncreasing) {
  for (const std::vector<double>& bounds :
       {MetricsRegistry::LatencyBucketsMs(), MetricsRegistry::CountBuckets(),
        MetricsRegistry::UnitBuckets()}) {
    ASSERT_FALSE(bounds.empty());
    for (size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

// ----------------------------------------- Quantile interpolation -------
// HistogramQuantile is a free function over (bounds, buckets): the loadgen
// latency recorder and the /metrics consumers share it, so its semantics
// are pinned here exactly.

TEST(HistogramQuantileTest, EmptyDistributionIsNaN) {
  EXPECT_TRUE(std::isnan(HistogramQuantile({1.0, 2.0}, {0, 0, 0}, 0.5)));
  EXPECT_TRUE(std::isnan(HistogramQuantile({}, {}, 0.5)));
  EXPECT_TRUE(std::isnan(HistogramQuantile({1.0}, {}, 0.5)));
}

TEST(HistogramQuantileTest, FirstBucketInterpolatesFromZero) {
  // Prometheus semantics: when bounds[0] > 0, the first bucket's lower
  // edge is 0, so a distribution entirely in bucket le=1 interpolates
  // inside [0, 1].
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {2, 0, 0, 0}, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {4, 0, 0, 0}, 0.25), 0.25);
}

TEST(HistogramQuantileTest, InterpolatesLinearlyInsideABucket) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  // One observation <= 1, one in (1, 2]: rank 1.5 of 2 lands halfway into
  // the second bucket.
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {1, 1, 0, 0}, 0.75), 1.5);
  // Bucket boundaries: the quantile exactly exhausting a bucket returns
  // its upper bound.
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {1, 1, 0, 0}, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {1, 1, 0, 0}, 1.0), 2.0);
}

TEST(HistogramQuantileTest, SkipsEmptyBucketsAndStaysMonotone) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0, 8.0};
  const std::vector<uint64_t> buckets = {3, 0, 1, 0, 0};
  double previous = 0.0;
  for (double q : {0.0, 0.1, 0.5, 0.74, 0.76, 0.9, 1.0}) {
    double value = HistogramQuantile(bounds, buckets, q);
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
  // The last observation sits in (2, 4]; anything above rank 3 of 4
  // interpolates there, never in the empty (1, 2] bucket.
  EXPECT_GT(HistogramQuantile(bounds, buckets, 0.9), 2.0);
}

TEST(HistogramQuantileTest, OverflowBucketReportsLastFiniteBound) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  // Everything beyond the ladder: the histogram cannot resolve the tail,
  // so the honest answer is the largest finite bound (Prometheus's
  // histogram_quantile does the same).
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {0, 0, 0, 7}, 0.99), 4.0);
  // Mixed: the overflow tail pulls high quantiles to the last bound.
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {1, 0, 0, 1}, 1.0), 4.0);
}

TEST(HistogramQuantileTest, QuantileIsClampedToUnitInterval) {
  const std::vector<double> bounds = {1.0, 2.0};
  const std::vector<uint64_t> buckets = {1, 1, 0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, buckets, -1.0),
                   HistogramQuantile(bounds, buckets, 0.0));
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, buckets, 2.0),
                   HistogramQuantile(bounds, buckets, 1.0));
}

TEST(HistogramQuantileTest, HistogramAndSnapshotAgreeWithFreeFunction) {
  Histogram h(std::vector<double>{1.0, 2.0, 4.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(3.0);
  h.Observe(9.0);
  const double direct = h.ValueAtQuantile(0.5);
  EXPECT_DOUBLE_EQ(direct,
                   HistogramQuantile(h.bounds(), h.BucketCounts(), 0.5));
  MetricsSnapshot::HistogramSample sample;
  sample.bounds = h.bounds();
  sample.buckets = h.BucketCounts();
  EXPECT_DOUBLE_EQ(sample.ValueAtQuantile(0.5), direct);
}

// ----------------------------------------------------------- Registry ---

TEST(MetricsRegistryTest, GetReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("test_counter", "help");
  Counter& b = reg.GetCounter("test_counter");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.GetGauge("test_gauge");
  Gauge& g2 = reg.GetGauge("test_gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = reg.GetHistogram("test_hist", {1.0, 2.0});
  // Re-registration with different bounds returns the same object; the
  // original bounds win.
  Histogram& h2 = reg.GetHistogram("test_hist", {100.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistryTest, ResetForTestZeroesWithoutUnregistering) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("reset_me");
  c.Increment(9);
  reg.ResetForTest();
  EXPECT_EQ(c.Value(), 0u);
  // The cached reference is still the registered metric.
  EXPECT_EQ(&c, &reg.GetCounter("reset_me"));
  EXPECT_EQ(reg.Snapshot().counters.size(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.GetCounter("zebra");
  reg.GetCounter("apple");
  reg.GetCounter("mango");
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "apple");
  EXPECT_EQ(snap.counters[1].name, "mango");
  EXPECT_EQ(snap.counters[2].name, "zebra");
}

// ---------------------------------------------------------- Exporters ---

TEST(ExporterTest, PrometheusTextEscapesHelpAndRendersCumulativeBuckets) {
  MetricsSnapshot snap;
  snap.counters.push_back({"c_total", "line1\nline2 with \\backslash", 7});
  snap.gauges.push_back({"g", "", -3});
  MetricsSnapshot::HistogramSample h;
  h.name = "h_ms";
  h.help = "latency";
  h.bounds = {0.25, 1.0};
  h.buckets = {2, 1, 3};  // non-cumulative; last entry is +Inf overflow
  h.count = 6;
  h.sum = 4.5;
  snap.histograms.push_back(h);

  std::string text = snap.ToPrometheusText();
  EXPECT_NE(
      text.find("# HELP c_total line1\\nline2 with \\\\backslash\n"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE c_total counter\nc_total 7\n"),
            std::string::npos);
  // No help line is emitted for an empty help string.
  EXPECT_EQ(text.find("# HELP g"), std::string::npos);
  EXPECT_NE(text.find("# TYPE g gauge\ng -3\n"), std::string::npos);
  // Exported buckets are cumulative; the +Inf bucket equals the count.
  EXPECT_NE(text.find("h_ms_bucket{le=\"0.25\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("h_ms_bucket{le=\"1\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("h_ms_bucket{le=\"+Inf\"} 6\n"), std::string::npos);
  // Sums render with fixed 6-decimal precision.
  EXPECT_NE(text.find("h_ms_sum 4.500000\n"), std::string::npos);
  EXPECT_NE(text.find("h_ms_count 6\n"), std::string::npos);
}

TEST(ExporterTest, JsonEscapesNamesAndKeepsRawBuckets) {
  MetricsSnapshot snap;
  snap.counters.push_back({"quote\"back\\slash\nnewline\ttab", "", 1});
  MetricsSnapshot::HistogramSample h;
  h.name = "h";
  h.bounds = {0.5};
  h.buckets = {4, 2};
  h.count = 6;
  h.sum = 2.25;
  snap.histograms.push_back(h);

  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"quote\\\"back\\\\slash\\nnewline\\ttab\":1"),
            std::string::npos);
  // JSON keeps the per-bucket (non-cumulative) counts.
  EXPECT_NE(json.find("\"h\":{\"bounds\":[0.5],\"buckets\":[4,2],"
                      "\"count\":6,\"sum\":2.250000}"),
            std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ExporterTest, JsonEscapesControlCharacters) {
  MetricsSnapshot snap;
  snap.counters.push_back({std::string("ctl\x01"), "", 0});
  EXPECT_NE(snap.ToJson().find("ctl\\u0001"), std::string::npos);
}

// Both exporters render the same registry state: every value written
// through the registry must be readable back from both text forms.
TEST(ExporterTest, RoundTripThroughBothExporters) {
  MetricsRegistry reg;
  reg.GetCounter("rt_counter").Increment(7);
  reg.GetGauge("rt_gauge").Set(-12);
  Histogram& h = reg.GetHistogram("rt_hist", {1.0, 10.0});
  h.Observe(0.5);
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(100.0);

  MetricsSnapshot snap = reg.Snapshot();
  std::string prom = snap.ToPrometheusText();
  std::string json = snap.ToJson();
  EXPECT_NE(prom.find("rt_counter 7\n"), std::string::npos);
  EXPECT_NE(prom.find("rt_gauge -12\n"), std::string::npos);
  EXPECT_NE(prom.find("rt_hist_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find("rt_hist_bucket{le=\"10\"} 3\n"), std::string::npos);
  EXPECT_NE(prom.find("rt_hist_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(prom.find("rt_hist_count 4\n"), std::string::npos);
  EXPECT_NE(json.find("\"rt_counter\":7"), std::string::npos);
  EXPECT_NE(json.find("\"rt_gauge\":-12"), std::string::npos);
  EXPECT_NE(json.find("\"rt_hist\":{\"bounds\":[1,10],"
                      "\"buckets\":[2,1,1],\"count\":4,\"sum\":106.000000}"),
            std::string::npos);
}

// A scrape-side parse of one histogram family from the exposition text:
// what a Prometheus server would reconstruct from GET /metrics.
struct ScrapedHistogram {
  std::vector<std::pair<double, uint64_t>> buckets;  // (le, cumulative)
  bool has_inf_bucket = false;
  uint64_t inf_cumulative = 0;
  uint64_t count = 0;
  double sum = 0.0;
};

ScrapedHistogram ScrapeHistogram(const std::string& text,
                                 const std::string& name) {
  ScrapedHistogram scraped;
  std::istringstream in(text);
  std::string line;
  const std::string bucket_prefix = name + "_bucket{le=\"";
  while (std::getline(in, line)) {
    if (line.rfind(bucket_prefix, 0) == 0) {
      size_t close = line.find('"', bucket_prefix.size());
      std::string le = line.substr(bucket_prefix.size(),
                                   close - bucket_prefix.size());
      uint64_t value = std::stoull(line.substr(line.rfind(' ') + 1));
      if (le == "+Inf") {
        scraped.has_inf_bucket = true;
        scraped.inf_cumulative = value;
      } else {
        scraped.buckets.emplace_back(std::strtod(le.c_str(), nullptr), value);
      }
    } else if (line.rfind(name + "_count ", 0) == 0) {
      scraped.count = std::stoull(line.substr(line.rfind(' ') + 1));
    } else if (line.rfind(name + "_sum ", 0) == 0) {
      scraped.sum = std::strtod(line.substr(line.rfind(' ') + 1).c_str(),
                                nullptr);
    }
  }
  return scraped;
}

// Conformance gate for the moment /metrics is actually scraped: what the
// exporter writes must parse back to exactly the registered histogram —
// every bound byte-exact under strtod, cumulative buckets monotone, the
// +Inf bucket present and equal to _count.
TEST(ExporterTest, PrometheusScrapeParseRoundTripsDefaultBucketLayouts) {
  MetricsRegistry reg;
  struct Layout {
    const char* name;
    std::vector<double> bounds;
  };
  // CountBuckets reaches 1048576: a bound that a %.6g-style rendering
  // truncates to "1.04858e+06", which scrapes back as a DIFFERENT bucket
  // boundary (regression).
  const Layout layouts[] = {
      {"rt_latency_ms", MetricsRegistry::LatencyBucketsMs()},
      {"rt_counts", MetricsRegistry::CountBuckets()},
      {"rt_unit", MetricsRegistry::UnitBuckets()},
  };
  for (const Layout& layout : layouts) {
    Histogram& h = reg.GetHistogram(layout.name, layout.bounds);
    // One observation per bucket boundary plus one overflow, so every
    // exported cumulative value is distinctive.
    for (double b : layout.bounds) h.Observe(b);
    h.Observe(layout.bounds.back() * 2);
  }

  const std::string text = reg.Snapshot().ToPrometheusText();
  for (const Layout& layout : layouts) {
    SCOPED_TRACE(layout.name);
    ScrapedHistogram scraped = ScrapeHistogram(text, layout.name);
    ASSERT_EQ(scraped.buckets.size(), layout.bounds.size());
    for (size_t i = 0; i < layout.bounds.size(); ++i) {
      // Byte-exact bound round-trip: a scraper must see the bucket
      // boundaries the registry was configured with, not a rounding.
      EXPECT_EQ(scraped.buckets[i].first, layout.bounds[i])
          << "bound " << i << " did not round-trip";
      if (i > 0) {
        EXPECT_GE(scraped.buckets[i].second, scraped.buckets[i - 1].second)
            << "cumulative buckets must be monotone";
      }
    }
    ASSERT_TRUE(scraped.has_inf_bucket);
    EXPECT_EQ(scraped.inf_cumulative, scraped.count);
    EXPECT_EQ(scraped.count, layout.bounds.size() + 1);
    EXPECT_GE(scraped.buckets.back().second, layout.bounds.size());
  }
}

TEST(ExporterTest, PrometheusHelpUnescapesToOriginal) {
  MetricsSnapshot snap;
  const std::string help = "line1\nline2 with \\backslash";
  snap.counters.push_back({"esc_total", help, 1});
  std::string text = snap.ToPrometheusText();
  std::string line;
  std::istringstream in(text);
  std::string unescaped;
  while (std::getline(in, line)) {
    if (line.rfind("# HELP esc_total ", 0) != 0) continue;
    std::string escaped = line.substr(std::string("# HELP esc_total ").size());
    for (size_t i = 0; i < escaped.size(); ++i) {
      if (escaped[i] == '\\' && i + 1 < escaped.size()) {
        unescaped += escaped[i + 1] == 'n' ? '\n' : escaped[i + 1];
        ++i;
      } else {
        unescaped += escaped[i];
      }
    }
  }
  EXPECT_EQ(unescaped, help);
}

// ---------------------------------------------- StepPhase / StepTimings ---

TEST(StepPhaseTest, EveryPhaseHasADistinctName) {
  const StepPhase phases[] = {
      StepPhase::kNone, StepPhase::kMaterialize, StepPhase::kRmGeneration,
      StepPhase::kGmmSelection, StepPhase::kRecommendations};
  std::vector<std::string> names;
  for (StepPhase p : phases) {
    std::string name = StepPhaseName(p);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    names.push_back(std::move(name));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(StepTimingsTest, DefaultIsZeroAndPipelineAccumulates) {
  StepTimings t;
  EXPECT_EQ(t.rm_generation_ms, 0.0);
  EXPECT_EQ(t.gmm_selection_ms, 0.0);

  // SelectForDisplay adds into the caller's StepTimings rather than
  // overwriting: two passes through one struct accumulate.
  auto db = MakeTinyRestaurantDb();
  EngineConfig config = TinyConfig();
  config.utility.database_size = db->num_records();
  RmPipeline pipeline(&config, nullptr);
  RatingGroup all = RatingGroup::Materialize(*db, GroupSelection{});
  SeenMapsTracker seen(db->num_dimensions());
  EXPECT_FALSE(
      pipeline.SelectForDisplay(all, seen, nullptr, &t, StopToken(), nullptr)
          .empty());
  const double first_pass = t.rm_generation_ms;
  EXPECT_GE(first_pass, 0.0);
  EXPECT_FALSE(
      pipeline.SelectForDisplay(all, seen, nullptr, &t, StopToken(), nullptr)
          .empty());
  EXPECT_GE(t.rm_generation_ms, first_pass);
}

// ---------------------------------------------------- RatingGroupCache ---

TEST(CacheStatsTest, HitMissCountersAreExact) {
  auto db = MakeTinyRestaurantDb();
  RatingGroupCache cache(db.get(), /*capacity=*/4);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  cache.Get(GroupSelection{});
  RatingGroupCache::Stats after_first = cache.stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_first.coalesced, 0u);
  EXPECT_EQ(after_first.entries, 1u);
  cache.Get(GroupSelection{});
  RatingGroupCache::Stats after_second = cache.stats();
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(after_second.misses, 1u);
  EXPECT_EQ(after_second.coalesced, 0u);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ----------------------------------------------------------- StepTrace ---

TEST(StepTraceTest, ToJsonOmitsTimingsOnRequest) {
  StepResult step;
  step.group_size = 12;
  step.maps.resize(3);
  step.degraded = true;
  step.cut_phase = StepPhase::kRmGeneration;
  step.trace.spans.push_back({StepPhase::kMaterialize, 0.0, 1.5, true});
  step.trace.spans.push_back({StepPhase::kRmGeneration, 1.5, 2.0, false});
  step.trace.display.candidates = 40;
  step.trace.display.pruned_ci = 10;
  step.trace.cache.misses = 1;

  std::string timed = StepTraceJson(step, /*include_timings=*/true);
  EXPECT_NE(timed.find("\"start_ms\":"), std::string::npos);
  EXPECT_NE(timed.find("\"duration_ms\":"), std::string::npos);

  std::string untimed = StepTraceJson(step, /*include_timings=*/false);
  EXPECT_EQ(untimed.find("start_ms"), std::string::npos);
  EXPECT_EQ(untimed.find("duration_ms"), std::string::npos);
  // The outcome comes from the StepResult itself.
  EXPECT_TRUE(untimed.starts_with(
      "{\"group_size\":12,\"maps_displayed\":3,\"recommendations\":0,"
      "\"degraded\":true,\"cancelled\":false,"
      "\"cut_phase\":\"rm-generation\","))
      << untimed;
  // Phase order and completion flags survive the deterministic view.
  EXPECT_NE(untimed.find("{\"phase\":\"materialize\",\"completed\":true}"),
            std::string::npos);
  EXPECT_NE(untimed.find("{\"phase\":\"rm-generation\",\"completed\":false}"),
            std::string::npos);
  EXPECT_NE(untimed.find("\"candidates\":40"), std::string::npos);
  EXPECT_NE(untimed.find("\"pruned_ci\":10"), std::string::npos);
}

// --------------------------------------------------- engine end-to-end ---

TEST(EngineMetricsTest, ExecuteStepPopulatesTraceAndGlobalRegistry) {
  MetricsRegistry::Global().ResetForTest();
  auto db = MakeTinyRestaurantDb();
  EngineConfig config = TinyConfig();
  SdeEngine engine(db.get(), config);
  StepResult step = engine.ExecuteStep(GroupSelection{}, true);

  ASSERT_FALSE(step.trace.spans.empty());
  EXPECT_EQ(step.trace.spans.front().phase, StepPhase::kMaterialize);
  EXPECT_TRUE(step.trace.spans.front().completed);
  EXPECT_GE(step.trace.display.candidates, step.maps.size());
  // The step's own group was a cold miss.
  EXPECT_GE(step.trace.cache.misses, 1u);

  MetricsSnapshot snap = engine.MetricsSnapshot();
  bool found_steps = false;
  for (const auto& c : snap.counters) {
    if (c.name == "subdex_engine_steps_total") {
      found_steps = true;
      EXPECT_EQ(c.value, 1u);
    }
  }
  EXPECT_TRUE(found_steps);

  std::ostringstream dump;
  DumpMetrics(dump);
  EXPECT_NE(dump.str().find("# TYPE subdex_engine_steps_total counter"),
            std::string::npos);
  EXPECT_NE(dump.str().find("subdex_group_cache_misses_total"),
            std::string::npos);
  MetricsRegistry::Global().ResetForTest();
}

// Observation counts of the four per-phase histograms, in phase order:
// materialize, rm-generation, gmm-selection, recommendation.
std::array<uint64_t, 4> PhaseObservations() {
  const char* const names[] = {
      "subdex_step_materialize_ms", "subdex_step_rm_generation_ms",
      "subdex_step_gmm_selection_ms", "subdex_step_recommendation_ms"};
  std::array<uint64_t, 4> counts{};
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  for (size_t i = 0; i < counts.size(); ++i) {
    for (const MetricsSnapshot::HistogramSample& h : snap.histograms) {
      if (h.name == names[i]) counts[i] = h.count;
    }
  }
  return counts;
}

// Each phase histogram gains one observation per phase that ran, and none
// for a phase the step never started.
TEST(EngineMetricsTest, PhaseHistogramsObserveThePhasesThatRan) {
  auto db = MakeTinyRestaurantDb();
  struct Case {
    const char* name;
    SelectionMode selection;
    bool with_recommendations;
    bool expired;
    std::array<uint64_t, 4> counts;
  };
  const Case cases[] = {
      {"RP step", SelectionMode::kUtilityAndDiversity, true, false,
       {1, 1, 1, 1}},
      {"UD step", SelectionMode::kUtilityAndDiversity, false, false,
       {1, 1, 1, 0}},
      {"expired deadline", SelectionMode::kUtilityAndDiversity, true, true,
       {0, 0, 0, 0}},
      {"utility only", SelectionMode::kUtilityOnly, true, false,
       {1, 1, 0, 1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MetricsRegistry::Global().ResetForTest();
    EngineConfig config = TinyConfig();
    config.selection = c.selection;
    SdeEngine engine(db.get(), config);
    StepOptions options;
    options.with_recommendations = c.with_recommendations;
    if (c.expired) options.deadline = Deadline::Expired();
    StepResult step = engine.ExecuteStep(GroupSelection{}, options);
    EXPECT_EQ(step.degraded, c.expired);
    EXPECT_EQ(PhaseObservations(), c.counts);
  }
  MetricsRegistry::Global().ResetForTest();
}

// A deadline that cuts RM generation also skips GMM diversification, so
// the gmm-selection span must not claim completion and the pass that never
// ran must not be observed.
TEST(EngineMetricsTest, GenerationCutLeavesGmmSpanIncomplete) {
  auto db = MakeTinyRestaurantDb();
  for (int attempt = 0; attempt < 50; ++attempt) {
    MetricsRegistry::Global().ResetForTest();
    SdeEngine engine(db.get(), TinyConfig());
    StepOptions options;
    options.deadline = Deadline::FromNowMs(0.01);
    StepResult step = engine.ExecuteStep(GroupSelection{}, options);
    if (step.cut_phase != StepPhase::kRmGeneration) continue;
    const auto gmm = std::find_if(
        step.trace.spans.begin(), step.trace.spans.end(),
        [](const StepTrace::PhaseSpan& s) {
          return s.phase == StepPhase::kGmmSelection;
        });
    ASSERT_NE(gmm, step.trace.spans.end());
    EXPECT_FALSE(gmm->completed);
    EXPECT_EQ(gmm->duration_ms, 0.0);
    EXPECT_EQ(PhaseObservations()[2], 0u);
    MetricsRegistry::Global().ResetForTest();
    return;
  }
  GTEST_SKIP() << "no step was cut at rm-generation in 50 tries";
}

}  // namespace
}  // namespace subdex
