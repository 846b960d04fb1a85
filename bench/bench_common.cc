#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "engine/exploration_session.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace subdex::bench {

BenchDataset MakeMovielens(double scale, uint64_t seed) {
  DatasetSpec spec = MovielensSpec().Scaled(scale);
  BenchDataset out;
  out.name = "Movielens(x" + FormatDouble(scale, 2) + ")";
  out.db = GenerateDataset(spec, seed);
  return out;
}

BenchDataset MakeYelp(double scale, uint64_t seed) {
  DatasetSpec spec = YelpSpec().Scaled(scale);
  spec.num_items = YelpSpec().num_items;  // keep the 93-restaurant table
  BenchDataset out;
  out.name = "Yelp(x" + FormatDouble(scale, 2) + ")";
  out.db = GenerateDataset(spec, seed);
  return out;
}

BenchDataset MakeHotel(double scale, uint64_t seed) {
  DatasetSpec spec = HotelSpec().Scaled(scale);
  BenchDataset out;
  out.name = "Hotel(x" + FormatDouble(scale, 2) + ")";
  out.db = GenerateDataset(spec, seed);
  return out;
}

EngineConfig QualityConfig() {
  EngineConfig config;  // k=3, o=3, l=3, n=10 (Table 3)
  config.operations.max_candidates = 100;
  config.num_threads = 4;
  return config;
}

IrregularPlantingOptions BenchIrregularOptions(bool yelp_shaped) {
  IrregularPlantingOptions options;
  if (yelp_shaped) {
    options.min_member_fraction = 0.02;
    options.max_description = 2;
  } else {
    options.min_member_fraction = 0.01;
  }
  return options;
}

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  int out = fallback;
  if (!ParseInt(value, &out)) return fallback;
  return out;
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  double out = fallback;
  if (!ParseDouble(value, &out)) return fallback;
  return out;
}

const std::vector<AlgorithmVariant>& ScalabilityVariants() {
  static const std::vector<AlgorithmVariant> kVariants = {
      {"SubDEx", PruningScheme::kHybrid, true},
      {"No-Pruning", PruningScheme::kNone, true},
      {"CI-Pruning", PruningScheme::kConfidenceInterval, true},
      {"MAB-Pruning", PruningScheme::kMab, true},
      {"No-Parallelism", PruningScheme::kHybrid, false},
      {"Naive", PruningScheme::kNone, false},
  };
  return kVariants;
}

StepCost MeasureSteps(const SubjectiveDatabase& db, EngineConfig config,
                      size_t steps) {
  ExplorationSession session(&db, config, ExplorationMode::kFullyAutomated);
  session.Start(GroupSelection{});
  session.RunAutomated(steps - 1);
  StepCost cost;
  for (const StepResult& step : session.path()) {
    cost.avg_ms += step.elapsed_ms;
    cost.avg_record_updates +=
        static_cast<double>(step.trace.display.record_updates +
                            step.trace.recommendations.record_updates);
  }
  size_t n = session.path().size();
  cost.avg_ms /= static_cast<double>(n);
  cost.avg_record_updates /= static_cast<double>(n);
  return cost;
}

StepCost MeasureSteps(const SubjectiveDatabase& db, EngineConfig config,
                      size_t steps, size_t repeats) {
  if (repeats < 1) repeats = 1;
  // One pass collects both fields, so the medians come from the same runs
  // (MedianOfRuns would re-run the workload once per field).
  std::vector<double> ms, updates;
  ms.reserve(repeats);
  updates.reserve(repeats);
  for (size_t i = 0; i < repeats; ++i) {
    StepCost one = MeasureSteps(db, config, steps);
    ms.push_back(one.avg_ms);
    updates.push_back(one.avg_record_updates);
  }
  StepCost cost;
  cost.avg_ms = Median(std::move(ms));
  cost.avg_record_updates = Median(std::move(updates));
  return cost;
}

size_t RepeatCount(int argc, char** argv) {
  const char* spec = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--repeat=", 9) == 0) spec = argv[i] + 9;
  }
  if (spec == nullptr) spec = std::getenv("SUBDEX_REPEAT");
  if (spec == nullptr) return 1;
  int out = 1;
  if (!ParseInt(spec, &out) || out < 1) return 1;
  return static_cast<size_t>(out);
}

void PrintBanner(const std::string& title, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

}  // namespace subdex::bench
