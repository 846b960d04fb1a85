// Figure 11: running times as a function of system parameters on the
// Yelp-shaped dataset: (a) the number of displayed rating maps k, (b) the
// number of next-step recommendations o, and (c) the pruning-diversity
// factor l, for SubDEx and the five restricted variants. As in Figure 10,
// the average per-step latency of a Fully-Automated path is reported,
// along with per-step histogram-update work. Note: the flat-in-o behavior
// of the parallel variants needs about as many cores as the o sweep's
// budget evaluates candidates (k*o*4); on fewer cores the parallel curves
// rise, more slowly than the sequential ones, and the work column still
// shows the variant separation.

#include <cstdio>

#include "bench/bench_common.h"

using namespace subdex;
using namespace subdex::bench;

namespace {

EngineConfig ScalabilityConfig(const AlgorithmVariant& variant) {
  EngineConfig config = QualityConfig();
  config.pruning = variant.pruning;
  config.parallel_recommendations = variant.parallel;
  config.operations.max_candidates = 80;
  return config;
}

void Sweep(const SubjectiveDatabase& db, const char* param, size_t steps,
           size_t repeats, const std::vector<size_t>& values,
           void (*apply)(EngineConfig*, size_t)) {
  std::printf("\n--- running time vs. %s ---\n", param);
  for (size_t value : values) {
    std::printf("\n%s = %zu:\n", param, value);
    std::printf("%-16s %14s %18s\n", "variant", "avg step ms",
                "avg updates/step");
    for (const AlgorithmVariant& v : ScalabilityVariants()) {
      EngineConfig config = ScalabilityConfig(v);
      apply(&config, value);
      StepCost cost = MeasureSteps(db, config, steps, repeats);
      std::printf("%-16s %14.1f %18.0f\n", v.name, cost.avg_ms,
                  cost.avg_record_updates);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  PrintBanner("Running times vs. system parameters", "Figure 11 (a, b, c)");
  double scale = EnvDouble("SUBDEX_SCALE", 0.2);
  size_t steps = static_cast<size_t>(EnvInt("SUBDEX_STEPS", 3));
  size_t repeats = RepeatCount(argc, argv);
  BenchDataset yelp = MakeYelp(scale, 91);
  std::printf("%s: %zu records; %zu-step FA paths; defaults k=3 o=3 l=3; "
              "median of %zu run(s)\n",
              yelp.name.c_str(), yelp.db->num_records(), steps, repeats);

  Sweep(*yelp.db, "k (# rating maps)", steps, repeats, {1, 2, 3, 4, 5},
        [](EngineConfig* c, size_t v) { c->k = v; });
  // For the o sweep the builder gets the paper's o-proportional evaluation
  // budget (top-o operations per displayed map => ~k*o evaluations).
  Sweep(*yelp.db, "o (# recommendations)", steps, repeats, {1, 2, 3, 4, 5},
        [](EngineConfig* c, size_t v) {
          c->o = v;
          c->max_operation_evaluations = c->k * v * 4;
        });
  Sweep(*yelp.db, "l (pruning-diversity factor)", steps, repeats,
        {1, 2, 3, 4, 5},
        [](EngineConfig* c, size_t v) { c->l = v; });

  std::printf(
      "\nexpected shape (paper Fig. 11): (a) nearly flat in k — the same "
      "k*l candidate budget is examined; (b) flat in o for parallel "
      "variants, linear for No-Parallelism/Naive (requires multiple "
      "physical cores to show in wall time); (c) time grows with l for "
      "pruned variants (fewer maps discarded), flat for unpruned ones.\n");
  return 0;
}
