// Interactive SubDEx shell — the programmatic stand-in for the demo paper's
// HTML UI (Figure 5). Explore a synthetic dataset step by step:
//
//   subdex_cli [movielens|yelp|hotel] [scale]
//
// Commands:
//   show                      redisplay the current step's rating maps
//   reviewers <query>|-       set the reviewer selection (SQL-ish: a = b AND ...)
//   items <query>|-           set the item selection
//   go                        apply the selection ("Apply Selection")
//   recs                      show next-step recommendations ("Get Recommendation")
//   apply <i>                 follow recommendation i (1-based)
//   auto <n>                  run n fully-automated steps
//   fallacies                 check the last drill-down for Simpson-style
//                             reversals (drill-down fallacy detection)
//   log                       print the exploration path so far
//   save <dir>                write the path to <dir> as a session journal
//                             (the format subdexd writes and replays)
//   help / quit
//
// Reads commands from stdin; with no input (e.g. when run from a script) it
// prints the first step and exits cleanly.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/specs.h"
#include "datagen/synthetic.h"
#include "engine/exploration_session.h"
#include "engine/fallacy.h"
#include "server/session_journal.h"
#include "storage/query_parser.h"
#include "util/string_util.h"

namespace {

using namespace subdex;

void PrintStep(const SubjectiveDatabase& db, const StepResult& step) {
  std::printf("\n== rating group: %s  (%zu records, %.0f ms) ==\n",
              step.selection.ToString(db).c_str(), step.group_size,
              step.elapsed_ms);
  for (const ScoredRatingMap& scored : step.maps) {
    std::printf("-- %s   [utility %.2f]\n",
                scored.map.key().ToString(db).c_str(), scored.utility);
    const Table& table = db.table(scored.map.key().side);
    size_t shown = 0;
    for (const Subgroup& sg : scored.map.subgroups()) {
      if (++shown > 5) {
        std::printf("     ...\n");
        break;
      }
      std::string name =
          sg.value == kNullCode
              ? "unspecified"
              : table.dictionary(scored.map.key().attribute).ValueOf(sg.value);
      std::printf("     %-20s n=%-6llu avg=%s %s\n", name.c_str(),
                  static_cast<unsigned long long>(sg.count()),
                  FormatDouble(sg.average(), 2).c_str(),
                  sg.dist.ToString().c_str());
    }
  }
}

void PrintRecommendations(const SubjectiveDatabase& db,
                          const StepResult& step) {
  if (step.recommendations.empty()) {
    std::printf("no recommendations available\n");
    return;
  }
  for (size_t i = 0; i < step.recommendations.size(); ++i) {
    const Recommendation& rec = step.recommendations[i];
    std::printf("[%zu] %-9s %s  (%zu records, utility %.2f)\n", i + 1,
                OperationKindName(rec.operation.kind),
                rec.operation.target.ToString(db).c_str(), rec.group_size,
                rec.utility);
  }
}

void PrintPath(const SubjectiveDatabase& db,
               const std::vector<StepResult>& path) {
  for (size_t i = 0; i < path.size(); ++i) {
    std::printf("step %zu: %s  (%zu records, digest %s)\n", i + 1,
                path[i].selection.ToString(db).c_str(), path[i].group_size,
                DigestToHex(path[i].digest).c_str());
    for (const ScoredRatingMap& scored : path[i].maps) {
      std::printf("  %s\n", scored.map.key().ToString(db).c_str());
    }
  }
}

// Writes the path as session "cli" of the journal directory `dir`,
// replacing a session saved there before.
Status SavePath(const SubjectiveDatabase& db, const std::string& dataset,
                const EngineConfig& config,
                const std::vector<StepResult>& path, const std::string& dir) {
  JournalConfig journal_config;
  journal_config.dir = dir;
  Status st = SessionJournal::Erase(journal_config, "cli");
  if (!st.ok()) return st;
  auto journal = SessionJournal::Start(journal_config, "cli");
  if (!journal.ok()) return journal.status();
  st = journal.value()->Append(
      MakeCreateRecord(dataset, /*ttl_ms=*/0, config));
  for (size_t i = 0; st.ok() && i < path.size(); ++i) {
    st = journal.value()->Append(MakeStepRecord(
        PredicateToQuery(db.reviewers(), path[i].selection.reviewer_pred),
        PredicateToQuery(db.items(), path[i].selection.item_pred),
        /*with_recommendations=*/true, path[i].degraded, path[i].digest));
  }
  return st.ok() ? journal.value()->Sync() : st;
}

void PrintHelp() {
  std::printf(
      "commands: show | reviewers <query>|- | items <query>|- | go | recs |\n"
      "          apply <i> | auto <n> | fallacies | log | save <dir> |\n"
      "          help | quit\n"
      "query syntax: attr = value AND attr = 'two words'\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace subdex;
  std::string dataset = argc > 1 ? argv[1] : "yelp";
  double scale = 0.05;
  if (argc > 2 && !ParseDouble(argv[2], &scale)) scale = 0.05;

  DatasetSpec spec;
  if (dataset == "movielens") {
    spec = MovielensSpec().Scaled(scale);
  } else if (dataset == "hotel") {
    spec = HotelSpec().Scaled(scale);
  } else {
    dataset = "yelp";
    spec = YelpSpec().Scaled(scale);
    spec.num_items = YelpSpec().num_items;
  }
  std::printf("generating %s (x%.2f)...\n", dataset.c_str(), scale);
  auto db = GenerateDataset(spec, 20240704);
  std::printf("%zu reviewers, %zu items, %zu rating records, %zu dimensions\n",
              db->num_reviewers(), db->num_items(), db->num_records(),
              db->num_dimensions());

  EngineConfig config;
  config.operations.max_candidates = 150;
  ExplorationSession session(db.get(), config,
                             ExplorationMode::kRecommendationPowered);

  GroupSelection pending;
  const StepResult* current = &session.Start(GroupSelection{});
  PrintStep(*db, *current);
  PrintHelp();

  std::string line;
  while (std::printf("subdex> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;
    std::istringstream in(trimmed);
    std::string command;
    in >> command;
    std::string rest;
    std::getline(in, rest);
    rest = std::string(Trim(rest));

    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
    } else if (command == "show") {
      PrintStep(*db, *current);
    } else if (command == "reviewers" || command == "items") {
      bool is_reviewers = command == "reviewers";
      std::string query = rest == "-" ? "" : rest;
      Table* table = is_reviewers ? &db->reviewers() : &db->items();
      Result<Predicate> pred = ParsePredicate(table, query);
      if (!pred.ok()) {
        std::printf("error: %s\n", pred.status().ToString().c_str());
        continue;
      }
      (is_reviewers ? pending.reviewer_pred : pending.item_pred) =
          std::move(pred).value();
      std::printf("pending selection: %s\n", pending.ToString(*db).c_str());
    } else if (command == "go") {
      current = &session.ApplyOperation(pending);
      PrintStep(*db, *current);
    } else if (command == "recs") {
      PrintRecommendations(*db, *current);
    } else if (command == "apply") {
      int index = 0;
      if (!ParseInt(rest, &index) || index < 1 ||
          static_cast<size_t>(index) > current->recommendations.size()) {
        std::printf("usage: apply <1..%zu>\n",
                    current->recommendations.size());
        continue;
      }
      session.ApplyRecommendation(static_cast<size_t>(index - 1));
      current = &session.last();
      pending = current->selection;
      PrintStep(*db, *current);
    } else if (command == "auto") {
      int n = 1;
      if (!rest.empty() && !ParseInt(rest, &n)) n = 1;
      for (int i = 0; i < n; ++i) {
        if (!session.ApplyRecommendation(0)) {
          std::printf("no recommendation to follow\n");
          break;
        }
        current = &session.last();
        pending = current->selection;
        PrintStep(*db, *current);
      }
    } else if (command == "fallacies") {
      const auto& path = session.path();
      if (path.size() < 2) {
        std::printf("need at least two steps to compare\n");
        continue;
      }
      RatingGroup parent = RatingGroup::Materialize(
          *db, path[path.size() - 2].selection);
      RatingGroup child = RatingGroup::Materialize(*db, current->selection);
      auto warnings = DetectDrillDownFallacies(parent, child);
      if (warnings.empty()) {
        std::printf("no drill-down fallacies between the last two steps\n");
      }
      for (const FallacyWarning& w : warnings) {
        std::printf("! %s\n", w.Describe(*db).c_str());
      }
    } else if (command == "log") {
      PrintPath(*db, session.path());
    } else if (command == "save") {
      if (rest.empty()) {
        std::printf("usage: save <dir>\n");
        continue;
      }
      Status st = SavePath(*db, dataset, config, session.path(), rest);
      if (st.ok()) {
        std::printf("saved a %zu-step path to %s\n", session.path().size(),
                    rest.c_str());
      } else {
        std::printf("error: %s\n", st.ToString().c_str());
      }
    } else {
      std::printf("unknown command '%s' (try 'help')\n", command.c_str());
    }
  }
  std::printf("\nbye — %zu steps explored\n", session.path().size());
  return 0;
}
