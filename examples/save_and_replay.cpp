// Persistence and personalization end to end: generate a dataset, save it
// to disk, reload it, explore, journal the session the way subdexd does,
// read the journal back, and train the log-based operation-preference
// model that re-ranks future recommendations (the paper's modular
// Recommendation Builder extension).

#include <cstdio>
#include <filesystem>
#include <vector>

#include "datagen/specs.h"
#include "datagen/synthetic.h"
#include "engine/exploration_session.h"
#include "engine/personalized.h"
#include "server/session_journal.h"
#include "storage/query_parser.h"
#include "subjective/db_io.h"

int main() {
  using namespace subdex;
  std::printf("Save / reload / replay / personalize\n");
  std::printf("====================================\n\n");

  std::string dir =
      (std::filesystem::temp_directory_path() / "subdex_example_db").string();
  std::filesystem::remove_all(dir);

  // 1. Generate and persist a dataset.
  DatasetSpec spec = HotelSpec().Scaled(0.1);
  auto original = GenerateDataset(spec, 31415);
  Status st = SaveDatabase(*original, dir);
  SUBDEX_CHECK_OK(st);
  std::printf("saved %zu records to %s\n", original->num_records(),
              dir.c_str());

  // 2. Reload it — the working copy from here on.
  auto loaded = LoadDatabase(dir);
  SUBDEX_CHECK_OK(loaded);
  std::unique_ptr<SubjectiveDatabase> db = std::move(loaded).value();
  std::printf("reloaded: %zu reviewers, %zu items, %zu records\n\n",
              db->num_reviewers(), db->num_items(), db->num_records());

  // 3. Explore, and journal the session: a create record, then one step
  //    record per step, with the digest of what the step showed.
  EngineConfig config;
  config.operations.max_candidates = 120;
  ExplorationSession session(db.get(), config,
                             ExplorationMode::kFullyAutomated);
  session.Start(GroupSelection{});
  session.RunAutomated(4);

  JournalConfig journal_config;
  journal_config.dir = dir + "/journal";
  auto journal = SessionJournal::Start(journal_config, "example");
  SUBDEX_CHECK_OK(journal);
  SUBDEX_CHECK_OK(journal.value()->Append(
      MakeCreateRecord(spec.name, /*ttl_ms=*/0, config)));
  for (const StepResult& step : session.path()) {
    SUBDEX_CHECK_OK(journal.value()->Append(MakeStepRecord(
        PredicateToQuery(db->reviewers(), step.selection.reviewer_pred),
        PredicateToQuery(db->items(), step.selection.item_pred),
        /*with_recommendations=*/true, step.degraded, step.digest)));
  }
  SUBDEX_CHECK_OK(journal.value()->Sync());

  // 4. Read the journal back — each record's JSON is its human-readable
  //    form — and train the preference model from its selections.
  auto scanned = ScanJournalDir(journal_config);
  SUBDEX_CHECK_OK(scanned);
  const SessionJournalReplay& replay = scanned.value().front();
  SUBDEX_CHECK_OK(replay.status);
  std::printf("journaled a %zu-step session to %s:\n\n",
              session.path().size(), journal_config.dir.c_str());
  std::vector<GroupSelection> path;
  for (const JsonValue& record : replay.records) {
    std::printf("%s\n", record.Dump().c_str());
    if (record.Find("type")->str() != "step") continue;
    auto step = ParseStepRecord(*db, record);
    SUBDEX_CHECK_OK(step);
    path.push_back(step.value().selection);
  }
  SUBDEX_CHECK(path.size() == session.path().size());
  for (size_t s = 0; s < path.size(); ++s) {
    SUBDEX_CHECK(path[s] == session.path()[s].selection);
  }
  OperationPreferenceModel model;
  model.ObservePath(path);
  std::printf("\npreference model trained on %.0f attribute touches\n",
              model.total_observations());

  ExplorationSession fresh(db.get(), config,
                           ExplorationMode::kRecommendationPowered);
  const StepResult& step = fresh.Start(GroupSelection{});
  std::printf("\nSubDEx ranking:\n");
  for (const Recommendation& rec : step.recommendations) {
    std::printf("  [%.2f] %s\n", rec.utility,
                rec.operation.Describe(*db).c_str());
  }
  std::printf("\npersonalized re-ranking (blend 0.5):\n");
  for (const Recommendation& rec :
       model.Rerank(step.recommendations, step.selection, 0.5)) {
    std::printf("  [affinity %.2f, utility %.2f] %s\n",
                model.Affinity(step.selection, rec.operation.target),
                rec.utility, rec.operation.Describe(*db).c_str());
  }

  std::filesystem::remove_all(dir);
  std::printf("\ndone.\n");
  return 0;
}
