// Fully-Automated exploration of a MovieLens-100K-shaped database: the
// engine applies the top-1 next-step recommendation at every step,
// producing a fixed-length exploration path without user input
// (Section 3.3's third mode). Prints the path with the operation taken,
// the displayed maps and per-step engine statistics.

#include <cstdio>

#include "datagen/specs.h"
#include "datagen/synthetic.h"
#include "engine/exploration_session.h"

int main() {
  using namespace subdex;
  std::printf("Fully-Automated SDE on a MovieLens-shaped database\n");
  std::printf("==================================================\n\n");

  DatasetSpec spec = MovielensSpec().Scaled(0.3);
  auto db = GenerateDataset(spec, 7);
  std::printf("dataset: %zu reviewers, %zu movies, %zu ratings\n\n",
              db->num_reviewers(), db->num_items(), db->num_records());

  EngineConfig config;
  config.operations.max_candidates = 150;
  ExplorationSession session(db.get(), config,
                             ExplorationMode::kFullyAutomated);
  session.Start(GroupSelection{});
  size_t steps = session.RunAutomated(6);
  std::printf("executed %zu automated steps\n\n", steps + 1);

  for (size_t s = 0; s < session.path().size(); ++s) {
    const StepResult& step = session.path()[s];
    const StepTrace::PruningTrace& shown = step.trace.display;
    const StepTrace::PruningTrace& fanout = step.trace.recommendations;
    std::printf("step %zu  [%6.1f ms, %zu candidate maps, %zu pruned]\n", s,
                step.elapsed_ms, shown.candidates + fanout.candidates,
                shown.pruned_ci + shown.pruned_mab + fanout.pruned_ci +
                    fanout.pruned_mab);
    std::printf("  selection: %s  (%zu records)\n",
                step.selection.ToString(*db).c_str(), step.group_size);
    for (const ScoredRatingMap& m : step.maps) {
      std::printf("  map: %-55s utility=%.2f\n",
                  m.map.key().ToString(*db).c_str(), m.utility);
    }
    if (!step.recommendations.empty()) {
      std::printf("  next: %s (utility %.2f)\n",
                  step.recommendations[0].operation.Describe(*db).c_str(),
                  step.recommendations[0].utility);
    }
  }

  // Summarize which operations kinds the automated path used: the ability
  // to roll up / change, not only drill down, is what separates SubDEx
  // from the drill-down baselines (Table 4's analysis).
  size_t filters = 0, generalizes = 0, changes = 0, composites = 0;
  for (size_t s = 1; s < session.path().size(); ++s) {
    const GroupSelection& prev = session.path()[s - 1].selection;
    const GroupSelection& cur = session.path()[s].selection;
    if (cur.size() > prev.size()) {
      (cur.EditDistance(prev) == 1 ? filters : composites) += 1;
    } else if (cur.size() < prev.size()) {
      ++generalizes;
    } else {
      ++changes;
    }
  }
  std::printf(
      "\npath operations: %zu filter (drill-down), %zu generalize (roll-up), "
      "%zu change, %zu composite\n",
      filters, generalizes, changes, composites);
  return 0;
}
