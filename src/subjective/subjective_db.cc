#include "subjective/subjective_db.h"

#include <cmath>
#include <numeric>

#include "util/check.h"

namespace subdex {

const char* SideName(Side side) {
  return side == Side::kReviewer ? "reviewer" : "item";
}

SubjectiveDatabase::SubjectiveDatabase(Schema reviewer_schema,
                                       Schema item_schema,
                                       std::vector<std::string> rating_dimensions,
                                       int scale)
    : reviewers_(std::move(reviewer_schema)),
      items_(std::move(item_schema)),
      dimension_names_(std::move(rating_dimensions)),
      scale_(scale) {
  SUBDEX_CHECK_MSG(scale_ >= 2 && scale_ <= 100, "rating scale out of range");
  SUBDEX_CHECK_MSG(!dimension_names_.empty(),
                   "at least one rating dimension required");
  scores_.resize(dimension_names_.size());
}

Status SubjectiveDatabase::AddRating(RowId reviewer, RowId item,
                                     const std::vector<double>& scores) {
  if (finalized_) {
    return Status::FailedPrecondition("database indexes already finalized");
  }
  if (reviewer >= reviewers_.num_rows()) {
    return Status::OutOfRange("reviewer row " + std::to_string(reviewer));
  }
  if (item >= items_.num_rows()) {
    return Status::OutOfRange("item row " + std::to_string(item));
  }
  if (scores.size() != dimension_names_.size()) {
    return Status::InvalidArgument(
        "expected " + std::to_string(dimension_names_.size()) + " scores");
  }
  record_reviewer_.push_back(reviewer);
  record_item_.push_back(item);
  for (size_t d = 0; d < scores.size(); ++d) {
    double clamped = std::min(static_cast<double>(scale_),
                              std::max(1.0, scores[d]));
    scores_[d].push_back(static_cast<int8_t>(std::lround(clamped)));
  }
  return Status::Ok();
}

void SubjectiveDatabase::SetScore(size_t d, RecordId r, int value) {
  SUBDEX_CHECK(d < scores_.size());
  SUBDEX_CHECK(r < scores_[d].size());
  int clamped = std::min(scale_, std::max(1, value));
  scores_[d][r] = static_cast<int8_t>(clamped);
}

void SubjectiveDatabase::FinalizeIndexes() {
  SUBDEX_CHECK_MSG(!finalized_, "FinalizeIndexes called twice");
  reviewer_records_.assign(reviewers_.num_rows(), {});
  item_records_.assign(items_.num_rows(), {});
  for (RecordId r = 0; r < record_reviewer_.size(); ++r) {
    reviewer_records_[record_reviewer_[r]].push_back(r);
    item_records_[record_item_[r]].push_back(r);
  }

  value_bitmaps_.clear();
  value_bitmaps_.resize(2);
  for (int s = 0; s < 2; ++s) {
    const Table& table = s == 0 ? reviewers_ : items_;
    auto& per_attr = value_bitmaps_[s];
    per_attr.resize(table.num_attributes());
    for (size_t a = 0; a < table.num_attributes(); ++a) {
      AttributeType type = table.schema().attribute(a).type;
      if (type == AttributeType::kNumeric) continue;
      size_t num_values = table.DistinctValueCount(a);
      per_attr[a].assign(num_values, Bitmap(table.num_rows()));
      for (RowId row = 0; row < table.num_rows(); ++row) {
        if (type == AttributeType::kCategorical) {
          ValueCode c = table.CodeAt(a, row);
          if (c != kNullCode) per_attr[a][static_cast<size_t>(c)].Set(row);
        } else {
          for (ValueCode c : table.MultiCodesAt(a, row)) {
            per_attr[a][static_cast<size_t>(c)].Set(row);
          }
        }
      }
    }
  }
  finalized_ = true;
}

const std::string& SubjectiveDatabase::dimension_name(size_t d) const {
  SUBDEX_CHECK(d < dimension_names_.size());
  return dimension_names_[d];
}

int SubjectiveDatabase::DimensionIndexOf(const std::string& name) const {
  for (size_t d = 0; d < dimension_names_.size(); ++d) {
    if (dimension_names_[d] == name) return static_cast<int>(d);
  }
  return -1;
}

const std::vector<RecordId>& SubjectiveDatabase::RecordsOfReviewer(
    RowId reviewer) const {
  SUBDEX_CHECK(finalized_);
  SUBDEX_CHECK(reviewer < reviewer_records_.size());
  return reviewer_records_[reviewer];
}

const std::vector<RecordId>& SubjectiveDatabase::RecordsOfItem(
    RowId item) const {
  SUBDEX_CHECK(finalized_);
  SUBDEX_CHECK(item < item_records_.size());
  return item_records_[item];
}

Bitmap SubjectiveDatabase::MatchRows(Side side, const Predicate& pred) const {
  SUBDEX_CHECK_MSG(finalized_, "call FinalizeIndexes() first");
  const Table& table = this->table(side);
  Bitmap result(table.num_rows(), /*value=*/true);
  const auto& bitmaps = side_bitmaps(side);
  for (const AttributeValue& av : pred.conjuncts()) {
    SUBDEX_CHECK(av.attribute < bitmaps.size());
    const auto& per_value = bitmaps[av.attribute];
    if (av.code < 0 || static_cast<size_t>(av.code) >= per_value.size()) {
      // Value interned after FinalizeIndexes (e.g. a user-typed predicate
      // value that never occurs in the data): matches nothing.
      return Bitmap(table.num_rows());
    }
    result.And(per_value[static_cast<size_t>(av.code)]);
  }
  return result;
}

std::vector<RecordId> SubjectiveDatabase::MatchRecords(
    const Predicate& reviewer_pred, const Predicate& item_pred) const {
  SUBDEX_CHECK_MSG(finalized_, "call FinalizeIndexes() first");
  const size_t num_records = record_reviewer_.size();
  if (reviewer_pred.empty() && item_pred.empty()) {
    std::vector<RecordId> all(num_records);
    std::iota(all.begin(), all.end(), RecordId{0});
    return all;
  }
  // Matching rows of each constrained side; an unconstrained side gets
  // neither a bitmap nor a row list.
  Bitmap reviewer_bits;
  Bitmap item_bits;
  std::vector<RowId> reviewer_rows;
  std::vector<RowId> item_rows;
  if (!reviewer_pred.empty()) {
    reviewer_bits = MatchRows(Side::kReviewer, reviewer_pred);
    reviewer_rows = reviewer_bits.ToIndices();
  }
  if (!item_pred.empty()) {
    item_bits = MatchRows(Side::kItem, item_pred);
    item_rows = item_bits.ToIndices();
  }
  auto records_held = [](const std::vector<std::vector<RecordId>>& lists,
                         const std::vector<RowId>& rows) {
    size_t total = 0;
    for (RowId row : rows) total += lists[row].size();
    return total;
  };
  // Gather from the side whose matching rows hold fewer records. A record
  // is in the group iff its gathered-side row matches and its other-side
  // row does, so either side yields the same set.
  const bool gather_reviewers =
      item_pred.empty() ||
      (!reviewer_pred.empty() &&
       records_held(reviewer_records_, reviewer_rows) <=
           records_held(item_records_, item_rows));
  const auto& lists = gather_reviewers ? reviewer_records_ : item_records_;
  const std::vector<RowId>& rows = gather_reviewers ? reviewer_rows : item_rows;
  const bool test_other =
      !(gather_reviewers ? item_pred : reviewer_pred).empty();
  const Bitmap& other_bits = gather_reviewers ? item_bits : reviewer_bits;
  const std::vector<RowId>& other_row_of =
      gather_reviewers ? record_item_ : record_reviewer_;
  // Rating lists interleave across rows, so hits are marked in a record
  // bitmap and read back in record-id order, on which RmGenerator's seeded
  // shuffle of a group depends.
  Bitmap hits(num_records);
  for (RowId row : rows) {
    for (RecordId r : lists[row]) {
      if (!test_other || other_bits.Test(other_row_of[r])) hits.Set(r);
    }
  }
  return hits.ToIndices();
}

}  // namespace subdex
