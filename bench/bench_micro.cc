// Micro-benchmarks (google-benchmark) for the primitives every experiment
// rests on: distribution distances, rating-map construction, shared
// multi-aggregate scans, GMM diversification, group materialization and
// candidate-operation enumeration — plus the full engine step with its
// per-phase timing breakdown (the step trace's phase spans).

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/distance.h"
#include "core/gmm.h"
#include "core/interestingness.h"
#include "core/rating_map.h"
#include "engine/sde_engine.h"
#include "pruning/multi_aggregate_scan.h"
#include "subjective/operation.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/stats.h"

namespace {

using namespace subdex;
using namespace subdex::bench;

RatingDistribution RandomDistribution(Rng* rng, int scale, int total) {
  RatingDistribution d(scale);
  for (int i = 0; i < total; ++i) d.Add(rng->UniformInt(1, scale));
  return d;
}

const SubjectiveDatabase& SharedDb() {
  static BenchDataset data = MakeYelp(0.05, 71);
  return *data.db;
}

void BM_TotalVariation(benchmark::State& state) {
  Rng rng(1);
  RatingDistribution a = RandomDistribution(&rng, 5, 1000);
  RatingDistribution b = RandomDistribution(&rng, 5, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.TotalVariationDistance(b));
  }
}
BENCHMARK(BM_TotalVariation);

void BM_SmoothedTotalVariation(benchmark::State& state) {
  Rng rng(2);
  RatingDistribution a = RandomDistribution(&rng, 5, 1000);
  RatingDistribution b = RandomDistribution(&rng, 5, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SmoothedTotalVariation(a, b, 4.0));
  }
}
BENCHMARK(BM_SmoothedTotalVariation);

void BM_Emd(benchmark::State& state) {
  Rng rng(3);
  RatingDistribution a = RandomDistribution(&rng, 5, 1000);
  RatingDistribution b = RandomDistribution(&rng, 5, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Emd(b));
  }
}
BENCHMARK(BM_Emd);

void BM_HoeffdingSerfling(benchmark::State& state) {
  size_t sampled = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HoeffdingSerflingEpsilon(sampled, 10000, 0.05));
    sampled = sampled % 9000 + 100;
  }
}
BENCHMARK(BM_HoeffdingSerfling);

// A reviewer-side selection (Arg 0) or one conjunct on each side (Arg 1).
// Items are the records returned: the gather's work follows the group, not
// |R|.
void BM_MaterializeGroup(benchmark::State& state) {
  const SubjectiveDatabase& db = SharedDb();
  GroupSelection sel;
  sel.reviewer_pred = Predicate({{0, 0}});
  if (state.range(0) == 1) sel.item_pred = Predicate({{0, 0}});
  size_t records = 0;
  for (auto _ : state) {
    RatingGroup g = RatingGroup::Materialize(db, sel);
    records = g.size();
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records));
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK(BM_MaterializeGroup)->Arg(0)->Arg(1);

void BM_BuildRatingMap(benchmark::State& state) {
  const SubjectiveDatabase& db = SharedDb();
  RatingGroup all = RatingGroup::Materialize(db, GroupSelection{});
  RatingMapKey key{Side::kItem, static_cast<size_t>(state.range(0)), 0};
  for (auto _ : state) {
    RatingMap map = RatingMap::Build(all, key);
    benchmark::DoNotOptimize(map.num_subgroups());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(all.size()));
}
BENCHMARK(BM_BuildRatingMap)->Arg(0)->Arg(1);

void BM_MultiAggregateScan(benchmark::State& state) {
  const SubjectiveDatabase& db = SharedDb();
  RatingGroup all = RatingGroup::Materialize(db, GroupSelection{});
  for (auto _ : state) {
    MultiAggregateScan scan(&all, Side::kItem, 1);
    benchmark::DoNotOptimize(scan.Update(0, all.size()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(all.size()) *
                          static_cast<int64_t>(db.num_dimensions()));
}
BENCHMARK(BM_MultiAggregateScan);

void BM_InterestingnessScores(benchmark::State& state) {
  const SubjectiveDatabase& db = SharedDb();
  RatingGroup all = RatingGroup::Materialize(db, GroupSelection{});
  RatingMap map = RatingMap::Build(all, {Side::kItem, 1, 0});
  std::vector<RatingDistribution> seen = {map.overall(), map.overall()};
  UtilityConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeScores(map, seen, config));
  }
}
BENCHMARK(BM_InterestingnessScores);

void BM_GmmSelect(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> pos(n);
  for (double& p : pos) p = rng.UniformDouble();
  auto dist = [&pos](size_t a, size_t b) { return std::abs(pos[a] - pos[b]); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(GmmSelect(n, 3, dist, 0));
  }
}
BENCHMARK(BM_GmmSelect)->Arg(9)->Arg(32)->Arg(128);

void BM_EnumerateOperations(benchmark::State& state) {
  const SubjectiveDatabase& db = SharedDb();
  GroupSelection current;
  current.reviewer_pred = Predicate({{0, 0}});
  OperationEnumerationOptions options;
  options.max_candidates = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EnumerateCandidateOperations(db, current, options));
  }
}
BENCHMARK(BM_EnumerateOperations)->Arg(100)->Arg(400);

// One full exploration step (display maps + recommendation fan-out) on the
// shared engine pool. Arg = num_threads; Arg(1) is the serial baseline, so
// comparing the reco_ms counters across args shows the parallel speedup of
// the recommendation phase. The mean duration of each phase span in the
// step trace, and the pool's work per step, are exported as counters.
void BM_EngineExecuteStep(benchmark::State& state) {
  const SubjectiveDatabase& db = SharedDb();
  EngineConfig config;
  config.num_threads = static_cast<size_t>(state.range(0));
  config.parallel_recommendations = state.range(0) > 1;
  config.operations.max_candidates = 60;
  config.min_group_size = 1;
  SdeEngine engine(&db, config);
  auto pool_stats = [&engine] {
    return engine.pool() != nullptr ? engine.pool()->stats()
                                    : ThreadPool::Stats{};
  };
  const ThreadPool::Stats pool_before = pool_stats();
  double phase_ms[static_cast<size_t>(StepPhase::kRecommendations) + 1] = {};
  size_t steps = 0;
  for (auto _ : state) {
    engine.ResetHistory();
    StepResult step = engine.ExecuteStep(GroupSelection{}, true);
    benchmark::DoNotOptimize(step.recommendations.size());
    for (const StepTrace::PhaseSpan& span : step.trace.spans) {
      phase_ms[static_cast<size_t>(span.phase)] += span.duration_ms;
    }
    ++steps;
  }
  if (steps > 0) {
    const ThreadPool::Stats pool_after = pool_stats();
    const double n = static_cast<double>(steps);
    auto mean_ms = [&](StepPhase phase) {
      return phase_ms[static_cast<size_t>(phase)] / n;
    };
    state.counters["materialize_ms"] = mean_ms(StepPhase::kMaterialize);
    state.counters["rm_gen_ms"] = mean_ms(StepPhase::kRmGeneration);
    state.counters["gmm_ms"] = mean_ms(StepPhase::kGmmSelection);
    state.counters["reco_ms"] = mean_ms(StepPhase::kRecommendations);
    state.counters["pool_tasks"] =
        static_cast<double>(pool_after.tasks_submitted -
                            pool_before.tasks_submitted) / n;
    state.counters["pool_batches"] =
        static_cast<double>(pool_after.batches_run -
                            pool_before.batches_run) / n;
  }
}
BENCHMARK(BM_EngineExecuteStep)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The same step driven through StepOptions with a far-future deadline: the
// extra cost is pure budget-checking (StopToken polls at phase and chunk
// boundaries) since the deadline never fires. Compare against
// BM_EngineExecuteStep/4 — the deadline-check overhead budget is < 1%.
void BM_EngineExecuteStepDeadline(benchmark::State& state) {
  const SubjectiveDatabase& db = SharedDb();
  EngineConfig config;
  config.num_threads = 4;
  config.parallel_recommendations = true;
  config.operations.max_candidates = 60;
  config.min_group_size = 1;
  SdeEngine engine(&db, config);
  for (auto _ : state) {
    engine.ResetHistory();
    StepOptions options;
    options.deadline = Deadline::FromNowMs(3'600'000.0);  // never fires
    StepResult step = engine.ExecuteStep(GroupSelection{}, options);
    benchmark::DoNotOptimize(step.recommendations.size());
  }
}
BENCHMARK(BM_EngineExecuteStepDeadline)->Unit(benchmark::kMillisecond);

void BM_SignatureEmdDistance(benchmark::State& state) {
  const SubjectiveDatabase& db = SharedDb();
  RatingGroup all = RatingGroup::Materialize(db, GroupSelection{});
  RatingMap a = RatingMap::Build(all, {Side::kItem, 0, 0});
  RatingMap b = RatingMap::Build(all, {Side::kItem, 1, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RatingMapDistance(a, b, MapDistanceKind::kSignatureEmd));
  }
}
BENCHMARK(BM_SignatureEmdDistance);

// --- metrics primitives (DESIGN.md §9 overhead budget) ------------------
//
// BM_EngineExecuteStep above includes the instrumentation: every subsystem
// it exercises updates the global registry, so the metrics cost of a step
// is part of its numbers. The primitives below isolate the per-call cost.

void BM_MetricsCounterIncrement(benchmark::State& state) {
  Counter& counter = MetricsRegistry::Global().GetCounter("bench_counter");
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.Value());
}
BENCHMARK(BM_MetricsCounterIncrement);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  Histogram& hist = MetricsRegistry::Global().GetHistogram(
      "bench_histogram", MetricsRegistry::LatencyBucketsMs());
  double value = 0.0;
  for (auto _ : state) {
    hist.Observe(value);
    value = value > 10000.0 ? 0.0 : value + 1.7;
  }
  benchmark::DoNotOptimize(hist.TotalCount());
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_MetricsSnapshot(benchmark::State& state) {
  // Snapshot over whatever the preceding benchmarks registered — the
  // realistic registry size of an instrumented process.
  for (auto _ : state) {
    MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    benchmark::DoNotOptimize(snap.counters.size());
  }
}
BENCHMARK(BM_MetricsSnapshot);

}  // namespace

BENCHMARK_MAIN();
