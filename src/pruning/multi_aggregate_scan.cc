#include "pruning/multi_aggregate_scan.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace subdex {

namespace {
constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
}  // namespace

MultiAggregateScan::MultiAggregateScan(const RatingGroup* group, Side side,
                                       size_t attribute)
    : group_(group), side_(side), attribute_(attribute) {
  SUBDEX_CHECK(group_ != nullptr);
  const SubjectiveDatabase& db = group_->db();
  const Table& table = db.table(side_);
  SUBDEX_CHECK(attribute_ < table.num_attributes());
  attribute_type_ = table.schema().attribute(attribute_).type;
  SUBDEX_CHECK(attribute_type_ != AttributeType::kNumeric);
  scale_ = db.scale();
  SUBDEX_CHECK(scale_ >= 2);
  dims_.resize(db.num_dimensions());
  for (auto& d : dims_) {
    d.overall.assign(static_cast<size_t>(scale_), 0);
  }
  num_active_ = dims_.size();
}

void MultiAggregateScan::DeactivateDimension(size_t dim) {
  SUBDEX_CHECK(dim < dims_.size());
  if (dims_[dim].active) {
    dims_[dim].active = false;
    --num_active_;
  }
}

bool MultiAggregateScan::IsActive(size_t dim) const {
  SUBDEX_CHECK(dim < dims_.size());
  return dims_[dim].active;
}

inline uint32_t MultiAggregateScan::SlotOf(ValueCode code) {
  // Codes come from the attribute's dictionary, or are kNullCode.
  SUBDEX_DCHECK_GE(code, kNullCode);
  const size_t index = static_cast<size_t>(code) + 1;
  if (index < slot_of_.size() && slot_of_[index] != kNoSlot) {
    return slot_of_[index];
  }
  return NewSlot(code);
}

uint32_t MultiAggregateScan::NewSlot(ValueCode code) {
  // Counter indexes (slot * scale + score - 1) are kept as uint32_t.
  SUBDEX_CHECK((slot_value_.size() + 1) * static_cast<size_t>(scale_) <=
               std::numeric_limits<uint32_t>::max());
  const size_t index = static_cast<size_t>(code) + 1;
  if (index >= slot_of_.size()) slot_of_.resize(index + 1, kNoSlot);
  slot_of_[index] = static_cast<uint32_t>(slot_value_.size());
  slot_value_.push_back(code);
  return slot_of_[index];
}

size_t MultiAggregateScan::Update(size_t begin, size_t end) {
  SUBDEX_CHECK(begin <= end && end <= group_->size());
  if (num_active_ == 0) return 0;
  const SubjectiveDatabase& db = group_->db();
  const Table& table = db.table(side_);
  const RecordId* recs = group_->records().data() + begin;
  const size_t n = end - begin;
  const uint32_t scale = static_cast<uint32_t>(scale_);
  auto row_of = [&](RecordId rec) {
    return side_ == Side::kReviewer ? db.reviewer_of(rec) : db.item_of(rec);
  };

  // Slot pass: each record's counter base, resolved once for every
  // dimension.
  const bool categorical = attribute_type_ == AttributeType::kCategorical;
  slice_bases_.clear();
  if (categorical) {
    const std::vector<ValueCode>& codes = table.CategoricalCodes(attribute_);
    slice_bases_.resize(n);
    for (size_t j = 0; j < n; ++j) {
      slice_bases_[j] = SlotOf(codes[row_of(recs[j])]) * scale;
    }
  } else {
    slice_ends_.resize(n);
    for (size_t j = 0; j < n; ++j) {
      const auto& cell = table.MultiCodesAt(attribute_, row_of(recs[j]));
      if (cell.empty()) {
        slice_bases_.push_back(SlotOf(kNullCode) * scale);
      } else {
        for (ValueCode c : cell) slice_bases_.push_back(SlotOf(c) * scale);
      }
      slice_ends_[j] = static_cast<uint32_t>(slice_bases_.size());
    }
  }
  const size_t num_counters = slot_value_.size() * scale;

  // Counting pass, one loop per active dimension. Scores are clamped into
  // [1, scale] on write, so every index is in range by construction.
  size_t updates = 0;
  for (size_t d = 0; d < dims_.size(); ++d) {
    PerDimension& pd = dims_[d];
    if (!pd.active) continue;
    pd.counts.resize(num_counters);  // slots first met here start at 0
    uint64_t* counts = pd.counts.data();
    uint64_t* overall = pd.overall.data();
    const uint32_t* bases = slice_bases_.data();
    if (categorical) {
      for (size_t j = 0; j < n; ++j) {
        const uint32_t s = static_cast<uint32_t>(db.score(d, recs[j]));
        SUBDEX_DCHECK(s >= 1 && s <= scale);
        SUBDEX_DCHECK_LT(bases[j] + s - 1, num_counters);
        ++overall[s - 1];
        ++counts[bases[j] + s - 1];
      }
    } else {
      size_t k = 0;
      for (size_t j = 0; j < n; ++j) {
        const uint32_t s = static_cast<uint32_t>(db.score(d, recs[j]));
        SUBDEX_DCHECK(s >= 1 && s <= scale);
        ++overall[s - 1];
        for (; k < slice_ends_[j]; ++k) {
          SUBDEX_DCHECK_LT(bases[k] + s - 1, num_counters);
          ++counts[bases[k] + s - 1];
        }
      }
    }
    pd.processed += n;
    updates += n;
  }
  return updates;
}

size_t MultiAggregateScan::processed(size_t dim) const {
  SUBDEX_CHECK(dim < dims_.size());
  return dims_[dim].processed;
}

HistogramView MultiAggregateScan::SlotView(const PerDimension& pd,
                                           size_t slot) const {
  const size_t base = slot * static_cast<size_t>(scale_);
  if (base >= pd.counts.size()) return {pd.counts.data(), scale_, 0};
  const uint64_t* counts = pd.counts.data() + base;
  uint64_t total = 0;
  for (int i = 0; i < scale_; ++i) total += counts[i];
  return {counts, scale_, total};
}

RatingMapCounts MultiAggregateScan::Counts(
    size_t dim, std::vector<SubgroupCounts>* storage) const {
  SUBDEX_CHECK(dim < dims_.size());
  const PerDimension& pd = dims_[dim];
  storage->clear();
  for (size_t slot = 0; slot < slot_value_.size(); ++slot) {
    HistogramView hist = SlotView(pd, slot);
    if (hist.total == 0) continue;
    storage->push_back({slot_value_[slot], hist, hist.Mean()});
  }
  std::sort(storage->begin(), storage->end(), InDisplayOrder);
  return {{pd.overall.data(), scale_, pd.processed},
          *storage,
          group_->size()};
}

RatingMap MultiAggregateScan::SnapshotMap(size_t dim) const {
  SUBDEX_CHECK(dim < dims_.size());
  const PerDimension& pd = dims_[dim];
  std::vector<Subgroup> subgroups;
  for (size_t slot = 0; slot < slot_value_.size(); ++slot) {
    HistogramView hist = SlotView(pd, slot);
    if (hist.total == 0) continue;
    subgroups.push_back({slot_value_[slot], RatingDistribution(hist)});
  }
  RatingMap map({side_, attribute_, dim}, std::move(subgroups),
                RatingDistribution(HistogramView{pd.overall.data(), scale_,
                                                 pd.processed}));
  map.set_full_group_size(group_->size());
  return map;
}

}  // namespace subdex
