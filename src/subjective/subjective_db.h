#ifndef SUBDEX_SUBJECTIVE_SUBJECTIVE_DB_H_
#define SUBDEX_SUBJECTIVE_SUBJECTIVE_DB_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/predicate.h"
#include "storage/table.h"
#include "util/bitmap.h"
#include "util/status.h"

namespace subdex {

/// Which entity table an attribute or predicate refers to.
enum class Side { kReviewer, kItem };

const char* SideName(Side side);

/// Record identifier within the rating store.
using RecordId = uint32_t;

/// A subjective database D = <I, U, R> (Section 3.1): an item table, a
/// reviewer table — both with objective categorical attributes — and a
/// rating store linking reviewers to items with one numeric score per
/// rating dimension (the subjective attributes). Scores live on the integer
/// scale {1, ..., scale()}; fractional scores produced by text extraction
/// are rounded into that scale at ingestion.
///
/// The class owns per-(attribute, value) row bitmaps on both entity tables
/// and each row's rating list, so a rating group is materialized by ANDing
/// row bitmaps and gathering the matching rows' ratings; call
/// `FinalizeIndexes()` once after ingestion (mutating the tables afterwards
/// is a usage error).
class SubjectiveDatabase {
 public:
  /// `scale` is the number of points of the rating scale {1..scale}.
  SubjectiveDatabase(Schema reviewer_schema, Schema item_schema,
                     std::vector<std::string> rating_dimensions,
                     int scale = 5);

  // --- ingestion -----------------------------------------------------------

  Table& reviewers() { return reviewers_; }
  Table& items() { return items_; }
  SUBDEX_NODISCARD const Table& reviewers() const { return reviewers_; }
  SUBDEX_NODISCARD const Table& items() const { return items_; }

  SUBDEX_NODISCARD const Table& table(Side side) const {
    return side == Side::kReviewer ? reviewers_ : items_;
  }
  Table& mutable_table(Side side) {
    return side == Side::kReviewer ? reviewers_ : items_;
  }

  /// Adds one rating record; `scores` must hold one value per rating
  /// dimension, each within [1, scale] (values are clamped and rounded to
  /// the integer scale).
  SUBDEX_MUST_USE_RESULT
  Status AddRating(RowId reviewer, RowId item,
                   const std::vector<double>& scores);

  /// Builds the attribute-value bitmaps and reviewer/item rating indexes.
  void FinalizeIndexes();
  SUBDEX_NODISCARD bool finalized() const { return finalized_; }

  // --- shape ---------------------------------------------------------------

  SUBDEX_NODISCARD
  size_t num_records() const { return record_reviewer_.size(); }
  SUBDEX_NODISCARD
  size_t num_reviewers() const { return reviewers_.num_rows(); }
  SUBDEX_NODISCARD size_t num_items() const { return items_.num_rows(); }
  SUBDEX_NODISCARD
  size_t num_dimensions() const { return dimension_names_.size(); }
  SUBDEX_NODISCARD const std::string& dimension_name(size_t d) const;
  /// Index of the dimension named `name`, or -1.
  SUBDEX_NODISCARD int DimensionIndexOf(const std::string& name) const;
  SUBDEX_NODISCARD int scale() const { return scale_; }

  // --- record access -------------------------------------------------------

  SUBDEX_NODISCARD
  RowId reviewer_of(RecordId r) const { return record_reviewer_[r]; }
  SUBDEX_NODISCARD RowId item_of(RecordId r) const { return record_item_[r]; }

  /// Integer score (1..scale) of record `r` for dimension `d`.
  SUBDEX_NODISCARD
  int score(size_t d, RecordId r) const { return scores_[d][r]; }

  /// Overwrites one score (clamped to [1, scale]). Scores are not indexed,
  /// so this is legal before and after FinalizeIndexes — the dataset
  /// generators use it to plant irregular groups and insights.
  void SetScore(size_t d, RecordId r, int value);

  /// Record ids rated by `reviewer` / rating `item` (requires finalized).
  SUBDEX_NODISCARD
  const std::vector<RecordId>& RecordsOfReviewer(RowId reviewer) const;
  SUBDEX_NODISCARD const std::vector<RecordId>& RecordsOfItem(RowId item) const;

  // --- group materialization ----------------------------------------------

  /// Bitmap over rows of `side`'s table matching `pred` (AND of value
  /// bitmaps; all-ones for the empty predicate). Requires finalized.
  SUBDEX_NODISCARD Bitmap MatchRows(Side side, const Predicate& pred) const;

  /// Record ids whose reviewer matches `reviewer_pred` and item matches
  /// `item_pred`, ascending, in a vector whose capacity is its size.
  /// Gathers the rating lists of the matching rows of one constrained side
  /// (the one whose rows hold fewer records) and tests each record's
  /// other-side row against that side's bitmap. Cost: the row-bitmap ANDs,
  /// the records gathered (at most |R|) and one |R|-bit pass to read the
  /// hits back; both predicates empty is every record id. Requires
  /// finalized.
  SUBDEX_NODISCARD
  std::vector<RecordId> MatchRecords(const Predicate& reviewer_pred,
                                     const Predicate& item_pred) const;

 private:
  Table reviewers_;
  Table items_;
  std::vector<std::string> dimension_names_;
  int scale_;

  std::vector<RowId> record_reviewer_;
  std::vector<RowId> record_item_;
  // scores_[d][r]: SoA layout, one contiguous array per rating dimension.
  std::vector<std::vector<int8_t>> scores_;

  bool finalized_ = false;
  std::vector<std::vector<RecordId>> reviewer_records_;
  std::vector<std::vector<RecordId>> item_records_;
  // value_bitmaps_[side][attr][code] over the side's table rows.
  // Numeric attributes have empty entries.
  std::vector<std::vector<std::vector<Bitmap>>> value_bitmaps_;

  SUBDEX_NODISCARD
  const std::vector<std::vector<Bitmap>>& side_bitmaps(Side side) const {
    return value_bitmaps_[side == Side::kReviewer ? 0 : 1];
  }
};

}  // namespace subdex

#endif  // SUBDEX_SUBJECTIVE_SUBJECTIVE_DB_H_
