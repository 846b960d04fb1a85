#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "engine/step_digest.h"
#include "server/session_journal.h"
#include "storage/value.h"

namespace stepbench {

using namespace subdex;

namespace {

// Whether a row's cell for `attribute` holds `code`: the cell's value for a
// categorical attribute, any of its values for a multi-valued one, and the
// null code for a cell without a value.
bool CellHas(const Table& table, size_t attribute, RowId row, ValueCode code) {
  if (table.schema().attribute(attribute).type ==
      AttributeType::kMultiCategorical) {
    const std::vector<ValueCode>& codes = table.MultiCodesAt(attribute, row);
    if (codes.empty()) return code == kNullCode;
    return std::find(codes.begin(), codes.end(), code) != codes.end();
  }
  return table.CodeAt(attribute, row) == code;
}

bool RowMatches(const Table& table, const Predicate& pred, RowId row) {
  for (const AttributeValue& av : pred.conjuncts()) {
    if (!CellHas(table, av.attribute, row, av.code)) return false;
  }
  return true;
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::vector<RecordId> NaiveSelect(const SubjectiveDatabase& db,
                                  const GroupSelection& selection) {
  std::vector<RecordId> out;
  for (RecordId r = 0; r < db.num_records(); ++r) {
    if (RowMatches(db.reviewers(), selection.reviewer_pred,
                   db.reviewer_of(r)) &&
        RowMatches(db.items(), selection.item_pred, db.item_of(r))) {
      out.push_back(r);
    }
  }
  return out;
}

std::string RecountMap(const SubjectiveDatabase& db,
                       const std::vector<RecordId>& records,
                       const ScoredRatingMap& scored) {
  const RatingMap& map = scored.map;
  const RatingMapKey& key = map.key();
  const Table& table = db.table(key.side);
  struct Tally {
    uint64_t count = 0;
    double sum = 0.0;
  };
  std::map<ValueCode, Tally> subgroups;
  std::vector<uint64_t> overall(static_cast<size_t>(db.scale()) + 1, 0);
  for (RecordId r : records) {
    const RowId row =
        key.side == Side::kReviewer ? db.reviewer_of(r) : db.item_of(r);
    const int score = db.score(key.dimension, r);
    ++overall[static_cast<size_t>(score)];
    auto tally = [&](ValueCode code) {
      Tally& t = subgroups[code];
      ++t.count;
      t.sum += score;
    };
    if (table.schema().attribute(key.attribute).type ==
        AttributeType::kMultiCategorical) {
      const std::vector<ValueCode>& codes =
          table.MultiCodesAt(key.attribute, row);
      if (codes.empty()) tally(kNullCode);
      for (ValueCode code : codes) tally(code);
    } else {
      tally(table.CodeAt(key.attribute, row));
    }
  }
  const std::string where = key.ToString(db) + ": ";
  if (map.num_subgroups() != subgroups.size()) {
    return where + "map has " + std::to_string(map.num_subgroups()) +
           " subgroups, recount has " + std::to_string(subgroups.size());
  }
  for (const Subgroup& sg : map.subgroups()) {
    auto it = subgroups.find(sg.value);
    if (it == subgroups.end()) {
      return where + "subgroup value " + std::to_string(sg.value) +
             " has no records in the recount";
    }
    const Tally& t = it->second;
    if (sg.count() != t.count) {
      return where + "subgroup " + std::to_string(sg.value) + " count " +
             std::to_string(sg.count()) + " != recount " +
             std::to_string(t.count);
    }
    const double average = t.sum / static_cast<double>(t.count);
    if (!Near(sg.average(), average)) {
      return where + "subgroup " + std::to_string(sg.value) + " average " +
             Num(sg.average()) + " != recount " + Num(average);
    }
  }
  for (int s = 1; s <= db.scale(); ++s) {
    if (map.overall().count(s) != overall[static_cast<size_t>(s)]) {
      return where + "overall count of score " + std::to_string(s) + " is " +
             std::to_string(map.overall().count(s)) + ", recount " +
             std::to_string(overall[static_cast<size_t>(s)]);
    }
  }
  if (map.overall().total() != records.size()) {
    return where + "overall total " + std::to_string(map.overall().total()) +
           " != group size " + std::to_string(records.size());
  }
  return "";
}

std::string CompareDigests(const std::vector<uint64_t>& acknowledged,
                           const std::vector<uint64_t>& reference) {
  if (acknowledged.size() != reference.size()) {
    return "digest chain has " + std::to_string(acknowledged.size()) +
           " steps, reference has " + std::to_string(reference.size());
  }
  for (size_t i = 0; i < acknowledged.size(); ++i) {
    if (acknowledged[i] != reference[i]) {
      return "step " + std::to_string(i) + " digest " +
             DigestToHex(acknowledged[i]) + " != reference " +
             DigestToHex(reference[i]);
    }
  }
  return "";
}

SessionChecker::SessionChecker(const SubjectiveDatabase* db,
                               const EngineConfig& config)
    : db_(db), config_(config), dimension_counts_(db->num_dimensions(), 0) {}

double SessionChecker::DimensionWeight(const std::vector<size_t>& counts,
                                       size_t total, size_t d) const {
  // Eq. 1 balances rating dimensions; with a single dimension there is
  // nothing to balance and the multiplier is 1.
  if (total == 0 || counts.size() == 1) return 1.0;
  return 1.0 - static_cast<double>(counts[d]) / static_cast<double>(total);
}

std::string SessionChecker::CheckScores(const ScoredRatingMap& map,
                                        const std::vector<size_t>& counts,
                                        size_t total) const {
  const InterestingnessScores& s = map.scores;
  const double criteria[] = {s.conciseness, s.agreement, s.self_peculiarity,
                             s.global_peculiarity};
  const std::string where = map.map.key().ToString(*db_) + ": ";
  double max_criterion = 0.0;
  for (double c : criteria) {
    if (!(c >= 0.0 && c <= 1.0)) {
      return where + "criterion " + Num(c) + " outside [0, 1]";
    }
    max_criterion = std::max(max_criterion, c);
  }
  if (!Near(map.utility, max_criterion)) {
    return where + "utility " + Num(map.utility) +
           " != max of the criteria " + Num(max_criterion);
  }
  const double weight =
      DimensionWeight(counts, total, map.map.key().dimension);
  if (!(map.dw_utility >= 0.0 && map.dw_utility <= map.utility) ||
      !Near(map.dw_utility, weight * map.utility)) {
    return where + "DW utility " + Num(map.dw_utility) + " != " +
           Num(weight) + " * " + Num(map.utility) + " (Eq. 1)";
  }
  return "";
}

std::string SessionChecker::Check(const StepResult& step) {
  const std::vector<RecordId> group = NaiveSelect(*db_, step.selection);
  if (step.group_size != group.size()) {
    return "group size " + std::to_string(step.group_size) +
           " != naive count " + std::to_string(group.size());
  }
  if (step.maps.size() > config_.k) {
    return "step displays " + std::to_string(step.maps.size()) +
           " maps, more than k";
  }
  for (const ScoredRatingMap& map : step.maps) {
    if (std::string err = RecountMap(*db_, group, map); !err.empty()) {
      return err;
    }
    if (std::string err = CheckScores(map, dimension_counts_, maps_seen_);
        !err.empty()) {
      return err;
    }
  }

  // Recommendations are ranked against the history that includes this
  // step's displayed maps.
  std::vector<size_t> counts = dimension_counts_;
  size_t seen = maps_seen_;
  for (const ScoredRatingMap& map : step.maps) {
    ++counts[map.map.key().dimension];
    ++seen;
  }
  if (step.recommendations.size() > config_.o) {
    return "step returns " + std::to_string(step.recommendations.size()) +
           " recommendations, more than o";
  }
  for (size_t i = 0; i < step.recommendations.size(); ++i) {
    const Recommendation& rec = step.recommendations[i];
    const std::string where = "recommendation " + std::to_string(i) + ": ";
    if (i > 0 && rec.utility > step.recommendations[i - 1].utility) {
      return where + "list is not ordered by utility";
    }
    double sum = 0.0;
    for (const ScoredRatingMap& map : rec.maps) {
      sum += map.dw_utility;
      if (std::string err = CheckScores(map, counts, seen); !err.empty()) {
        return where + err;
      }
    }
    if (!Near(rec.utility, sum)) {
      return where + "utility " + Num(rec.utility) +
             " != sum of its maps' DW utilities " + Num(sum) + " (Eq. 2)";
    }
    const size_t target_size = NaiveSelect(*db_, rec.operation.target).size();
    if (target_size < config_.min_group_size ||
        target_size != rec.group_size) {
      return where + "target group has " + std::to_string(target_size) +
             " records (reported " + std::to_string(rec.group_size) +
             ", minimum " + std::to_string(config_.min_group_size) + ")";
    }
    if (rec.operation.target == step.selection) {
      return where + "target is the current selection";
    }
    if (std::find(explored_.begin(), explored_.end(), rec.operation.target) !=
        explored_.end()) {
      return where + "target was already explored";
    }
  }

  dimension_counts_ = std::move(counts);
  maps_seen_ = seen;
  if (std::find(explored_.begin(), explored_.end(), step.selection) ==
      explored_.end()) {
    explored_.push_back(step.selection);
  }
  return "";
}

}  // namespace stepbench
