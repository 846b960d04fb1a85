#ifndef SUBDEX_STORAGE_TABLE_H_
#define SUBDEX_STORAGE_TABLE_H_

#include <string>
#include <vector>

#include "storage/dictionary.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "util/status.h"

namespace subdex {

/// Row identifier within a table.
using RowId = uint32_t;

/// An in-memory, dictionary-encoded columnar table. Categorical columns
/// store dense codes; multi-categorical columns store small code vectors
/// (e.g. a restaurant's cuisines); numeric columns store doubles (NaN for
/// null). This is the storage substrate for the reviewer and item relations
/// of a subjective database.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  SUBDEX_NODISCARD const Schema& schema() const { return schema_; }
  SUBDEX_NODISCARD size_t num_rows() const { return num_rows_; }
  SUBDEX_NODISCARD
  size_t num_attributes() const { return schema_.num_attributes(); }

  /// Appends one row; `cells` must have one Value per schema attribute with
  /// a type matching the attribute (or null).
  SUBDEX_MUST_USE_RESULT Status AppendRow(const std::vector<Value>& cells);

  /// Dictionary code of a categorical cell (kNullCode if null).
  SUBDEX_NODISCARD ValueCode CodeAt(size_t attr, RowId row) const;

  /// The whole code column of a categorical attribute, indexed by RowId
  /// (kNullCode for null cells): the read path of scans over many rows,
  /// which would otherwise pay CodeAt's checks on every row.
  SUBDEX_NODISCARD
  const std::vector<ValueCode>& CategoricalCodes(size_t attr) const;

  /// Codes of a multi-categorical cell (empty if null).
  SUBDEX_NODISCARD
  const std::vector<ValueCode>& MultiCodesAt(size_t attr, RowId row) const;

  /// Numeric cell (NaN if null).
  SUBDEX_NODISCARD double NumericAt(size_t attr, RowId row) const;

  /// True iff the row's cell for `attr` has (categorical) or contains
  /// (multi-categorical) the given code.
  SUBDEX_NODISCARD bool HasValue(size_t attr, RowId row, ValueCode code) const;

  /// The value dictionary of a (multi-)categorical attribute.
  SUBDEX_NODISCARD const Dictionary& dictionary(size_t attr) const;

  /// Number of distinct values observed for a (multi-)categorical attribute.
  SUBDEX_NODISCARD size_t DistinctValueCount(size_t attr) const;

  /// Renders a cell as a display string ("" for null; "a|b" for multi).
  SUBDEX_NODISCARD std::string CellToString(size_t attr, RowId row) const;

  /// Interns `value` into attr's dictionary (for building predicates whose
  /// values may not yet appear in the data).
  ValueCode InternValue(size_t attr, const std::string& value);

  /// Looks up `value` in attr's dictionary without inserting.
  SUBDEX_NODISCARD
  ValueCode LookupValue(size_t attr, const std::string& value) const;

 private:
  struct Column {
    AttributeType type = AttributeType::kCategorical;
    Dictionary dict;                             // (multi-)categorical
    std::vector<ValueCode> codes;                // categorical
    std::vector<std::vector<ValueCode>> multi;   // multi-categorical
    std::vector<double> numerics;                // numeric
  };

  SUBDEX_NODISCARD const Column& column(size_t attr) const;

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace subdex

#endif  // SUBDEX_STORAGE_TABLE_H_
