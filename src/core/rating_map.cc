#include "core/rating_map.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "util/check.h"
#include "util/string_util.h"

namespace subdex {

std::string RatingMapKey::ToString(const SubjectiveDatabase& db) const {
  return "GroupBy " + std::string(SideName(side)) + "." +
         db.table(side).schema().attribute(attribute).name +
         ", aggregated by " + db.dimension_name(dimension);
}

RatingMap::RatingMap(RatingMapKey key, std::vector<Subgroup> subgroups,
                     RatingDistribution overall)
    : key_(key), overall_(std::move(overall)) {
  // Sort a permutation so each subgroup's mean is computed once, not in
  // every comparison.
  std::vector<SubgroupCounts> counts;
  counts.reserve(subgroups.size());
  for (const Subgroup& sg : subgroups) {
    HistogramView hist = sg.dist.view();
    counts.push_back({sg.value, hist, hist.Mean()});
  }
  std::vector<size_t> order(subgroups.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return InDisplayOrder(counts[a], counts[b]);
  });
  subgroups_.reserve(subgroups.size());
  for (size_t i : order) subgroups_.push_back(std::move(subgroups[i]));
}

RatingMap RatingMap::Build(const RatingGroup& group, const RatingMapKey& key) {
  const SubjectiveDatabase& db = group.db();
  SUBDEX_CHECK(key.dimension < db.num_dimensions());
  const Table& table = db.table(key.side);
  SUBDEX_CHECK(key.attribute < table.num_attributes());
  AttributeType type = table.schema().attribute(key.attribute).type;
  SUBDEX_CHECK(type != AttributeType::kNumeric);
  const int scale = db.scale();
  // A hash-map partition, deliberately unlike the scan's code-indexed
  // counts: Build is the independent reference the scan is tested against.
  std::unordered_map<ValueCode, RatingDistribution> parts;
  RatingDistribution overall(scale);
  auto bucket = [&](ValueCode code) -> RatingDistribution& {
    auto it = parts.find(code);
    if (it == parts.end()) {
      it = parts.emplace(code, RatingDistribution(scale)).first;
    }
    return it->second;
  };
  for (RecordId rec : group.records()) {
    RowId row = key.side == Side::kReviewer ? db.reviewer_of(rec)
                                            : db.item_of(rec);
    int score = db.score(key.dimension, rec);
    overall.Add(score);
    if (type == AttributeType::kCategorical) {
      bucket(table.CodeAt(key.attribute, row)).Add(score);
    } else {
      const auto& codes = table.MultiCodesAt(key.attribute, row);
      if (codes.empty()) {
        bucket(kNullCode).Add(score);
      } else {
        for (ValueCode c : codes) bucket(c).Add(score);
      }
    }
  }
  std::vector<Subgroup> subgroups;
  subgroups.reserve(parts.size());
  for (auto& [code, dist] : parts) subgroups.push_back({code, std::move(dist)});
  RatingMap map(key, std::move(subgroups), std::move(overall));
  map.set_full_group_size(group.size());
  return map;
}

std::string RatingMap::ToString(const SubjectiveDatabase& db) const {
  const Table& table = db.table(key_.side);
  std::string out = key_.ToString(db) + "\n";
  for (const Subgroup& sg : subgroups_) {
    std::string name = sg.value == kNullCode
                           ? "unspecified"
                           : table.dictionary(key_.attribute).ValueOf(sg.value);
    out += "  " + name + ": n=" + std::to_string(sg.count()) + " " +
           sg.dist.ToString() + " avg=" + FormatDouble(sg.average(), 2) + "\n";
  }
  return out;
}

RatingMapCounts RatingMap::Counts(std::vector<SubgroupCounts>* storage) const {
  storage->clear();
  storage->reserve(subgroups_.size());
  for (const Subgroup& sg : subgroups_) {
    HistogramView hist = sg.dist.view();
    storage->push_back({sg.value, hist, hist.Mean()});
  }
  return {overall_.view(), *storage, full_group_size()};
}

std::vector<RatingMapKey> AllRatingMapKeys(const SubjectiveDatabase& db,
                                           const GroupSelection& selection) {
  std::vector<RatingMapKey> keys;
  for (Side side : {Side::kReviewer, Side::kItem}) {
    const Table& table = db.table(side);
    for (size_t a = 0; a < table.num_attributes(); ++a) {
      if (table.schema().attribute(a).type == AttributeType::kNumeric) {
        continue;
      }
      if (selection.pred(side).ConstrainsAttribute(a)) continue;
      for (size_t d = 0; d < db.num_dimensions(); ++d) {
        keys.push_back({side, a, d});
      }
    }
  }
  return keys;
}

}  // namespace subdex
