#ifndef SUBDEX_PRUNING_MULTI_AGGREGATE_SCAN_H_
#define SUBDEX_PRUNING_MULTI_AGGREGATE_SCAN_H_

#include <cstdint>
#include <vector>

#include "core/rating_map.h"
#include "util/status.h"

namespace subdex {

/// The "Combining Multiple Aggregates" sharing optimization (Section 4.2.1):
/// all candidate rating maps that group by the same attribute are evaluated
/// in a single scan, which keeps one set of counts per rating dimension.
///
/// Counts are flat and code-indexed. A slot is a value the scanned records
/// hold (null has one too), numbered in first-seen order through a
/// code-to-slot index. Each dimension keeps one contiguous array of
/// slots x scale counters plus its overall counts, so the arrays grow with
/// the values met, never with the attribute's dictionary. Update resolves
/// each record's slot once per slice, then runs one tight counting loop
/// per still-active dimension.
///
/// Dimensions are deactivated when their candidate map is pruned; per-
/// dimension processed counts therefore diverge, and every read reflects
/// the dimension's own processed prefix. Counts() lends that prefix's map
/// to the interestingness criteria in place, which is how the phased
/// estimator reads it; SnapshotMap() builds it as a RatingMap, for the
/// survivors' exact scoring. Both list the same subgroups with the same
/// counts as RatingMap::Build over the prefix.
class MultiAggregateScan {
 public:
  MultiAggregateScan(const RatingGroup* group, Side side, size_t attribute);

  SUBDEX_NODISCARD Side side() const { return side_; }
  SUBDEX_NODISCARD size_t attribute() const { return attribute_; }

  /// Stops updating dimension `dim` (its candidate was pruned).
  void DeactivateDimension(size_t dim);
  SUBDEX_NODISCARD bool IsActive(size_t dim) const;
  /// Number of active dimensions (a scan with none is skipped entirely).
  SUBDEX_NODISCARD size_t num_active() const { return num_active_; }

  /// Processes records [begin, end) of the group's record list for every
  /// active dimension. Returns the number of (record, dimension) updates
  /// performed — the work measure reported by the generator.
  size_t Update(size_t begin, size_t end);

  /// Records processed so far for dimension `dim`.
  SUBDEX_NODISCARD size_t processed(size_t dim) const;

  /// Dimension `dim`'s map over its processed prefix, read in place: its
  /// overall counts and every subgroup with a record in the prefix, in
  /// display order. `storage` receives the subgroup entries. The view
  /// borrows `storage` and this scan's counts, so it is valid until either
  /// changes.
  SUBDEX_NODISCARD
  RatingMapCounts Counts(size_t dim,
                         std::vector<SubgroupCounts>* storage) const;

  /// Rating map for `dim` over the records processed for it so far.
  SUBDEX_NODISCARD RatingMap SnapshotMap(size_t dim) const;

 private:
  struct PerDimension {
    bool active = true;
    size_t processed = 0;
    /// counts[slot * scale + score - 1]; covers the slots met while active.
    std::vector<uint64_t> counts;
    /// overall[score - 1]; sums to `processed`.
    std::vector<uint64_t> overall;
  };

  /// The slot of `code`, assigned by NewSlot when first met.
  uint32_t SlotOf(ValueCode code);
  uint32_t NewSlot(ValueCode code);
  /// Counts of `slot` in `pd` (empty when the dimension never saw it).
  SUBDEX_NODISCARD HistogramView SlotView(const PerDimension& pd,
                                          size_t slot) const;

  const RatingGroup* group_;
  Side side_;
  size_t attribute_;
  AttributeType attribute_type_;
  int scale_;
  std::vector<PerDimension> dims_;
  size_t num_active_;
  /// slot_of_[code + 1] is the slot of `code`, or kNoSlot; it grows to the
  /// largest code met.
  std::vector<uint32_t> slot_of_;
  /// slot_value_[slot] is the code the slot counts.
  std::vector<ValueCode> slot_value_;
  /// Per-slice scratch: the first counter index (slot * scale) of each of
  /// the slice's (record, value) pairs, and for multi-valued attributes
  /// the end of each record's run of pairs. Owned by the scan because
  /// scans update in parallel on the pool.
  std::vector<uint32_t> slice_bases_;
  std::vector<uint32_t> slice_ends_;
};

}  // namespace subdex

#endif  // SUBDEX_PRUNING_MULTI_AGGREGATE_SCAN_H_
