#include "storage/table.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/string_util.h"

namespace subdex {

namespace {
const std::vector<ValueCode> kEmptyCodes;
}  // namespace

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_attributes());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].type = schema_.attribute(i).type;
  }
}

Status Table::AppendRow(const std::vector<Value>& cells) {
  if (cells.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("row has " + std::to_string(cells.size()) +
                                   " cells, schema has " +
                                   std::to_string(schema_.num_attributes()));
  }
  // Validate types before mutating any column so a failed append is atomic.
  for (size_t i = 0; i < cells.size(); ++i) {
    const Value& v = cells[i];
    if (IsNull(v)) continue;
    switch (columns_[i].type) {
      case AttributeType::kCategorical:
        if (!std::holds_alternative<std::string>(v)) {
          return Status::InvalidArgument("attribute '" +
                                         schema_.attribute(i).name +
                                         "' expects a categorical value");
        }
        break;
      case AttributeType::kMultiCategorical:
        if (!std::holds_alternative<std::vector<std::string>>(v)) {
          return Status::InvalidArgument(
              "attribute '" + schema_.attribute(i).name +
              "' expects a multi-categorical value");
        }
        break;
      case AttributeType::kNumeric:
        if (!std::holds_alternative<double>(v)) {
          return Status::InvalidArgument("attribute '" +
                                         schema_.attribute(i).name +
                                         "' expects a numeric value");
        }
        break;
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    Column& col = columns_[i];
    const Value& v = cells[i];
    switch (col.type) {
      case AttributeType::kCategorical:
        col.codes.push_back(IsNull(v) ? kNullCode
                                      : col.dict.Intern(std::get<std::string>(v)));
        break;
      case AttributeType::kMultiCategorical: {
        std::vector<ValueCode> codes;
        if (!IsNull(v)) {
          for (const std::string& s : std::get<std::vector<std::string>>(v)) {
            codes.push_back(col.dict.Intern(s));
          }
          std::sort(codes.begin(), codes.end());
          codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
        }
        col.multi.push_back(std::move(codes));
        break;
      }
      case AttributeType::kNumeric:
        col.numerics.push_back(
            IsNull(v) ? std::numeric_limits<double>::quiet_NaN()
                      : std::get<double>(v));
        break;
    }
  }
  ++num_rows_;
  return Status::Ok();
}

const Table::Column& Table::column(size_t attr) const {
  SUBDEX_CHECK(attr < columns_.size());
  return columns_[attr];
}

ValueCode Table::CodeAt(size_t attr, RowId row) const {
  const Column& col = column(attr);
  SUBDEX_CHECK(col.type == AttributeType::kCategorical);
  SUBDEX_CHECK(row < col.codes.size());
  return col.codes[row];
}

const std::vector<ValueCode>& Table::CategoricalCodes(size_t attr) const {
  const Column& col = column(attr);
  SUBDEX_CHECK(col.type == AttributeType::kCategorical);
  return col.codes;
}

const std::vector<ValueCode>& Table::MultiCodesAt(size_t attr,
                                                  RowId row) const {
  const Column& col = column(attr);
  SUBDEX_CHECK(col.type == AttributeType::kMultiCategorical);
  SUBDEX_CHECK(row < col.multi.size());
  return col.multi[row];
}

double Table::NumericAt(size_t attr, RowId row) const {
  const Column& col = column(attr);
  SUBDEX_CHECK(col.type == AttributeType::kNumeric);
  SUBDEX_CHECK(row < col.numerics.size());
  return col.numerics[row];
}

bool Table::HasValue(size_t attr, RowId row, ValueCode code) const {
  const Column& col = column(attr);
  switch (col.type) {
    case AttributeType::kCategorical:
      return col.codes[row] == code;
    case AttributeType::kMultiCategorical: {
      const auto& codes = col.multi[row];
      return std::binary_search(codes.begin(), codes.end(), code);
    }
    case AttributeType::kNumeric:
      return false;
  }
  return false;
}

const Dictionary& Table::dictionary(size_t attr) const {
  const Column& col = column(attr);
  SUBDEX_CHECK(col.type != AttributeType::kNumeric);
  return col.dict;
}

size_t Table::DistinctValueCount(size_t attr) const {
  return dictionary(attr).size();
}

std::string Table::CellToString(size_t attr, RowId row) const {
  const Column& col = column(attr);
  switch (col.type) {
    case AttributeType::kCategorical: {
      ValueCode c = col.codes[row];
      return c == kNullCode ? "" : col.dict.ValueOf(c);
    }
    case AttributeType::kMultiCategorical: {
      std::vector<std::string> parts;
      for (ValueCode c : col.multi[row]) parts.push_back(col.dict.ValueOf(c));
      return Join(parts, "|");
    }
    case AttributeType::kNumeric: {
      double v = col.numerics[row];
      if (std::isnan(v)) return "";
      return FormatDouble(v, 4);
    }
  }
  return "";
}

ValueCode Table::InternValue(size_t attr, const std::string& value) {
  SUBDEX_CHECK(attr < columns_.size());
  SUBDEX_CHECK(columns_[attr].type != AttributeType::kNumeric);
  return columns_[attr].dict.Intern(value);
}

ValueCode Table::LookupValue(size_t attr, const std::string& value) const {
  return dictionary(attr).Lookup(value);
}

}  // namespace subdex
