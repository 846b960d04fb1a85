#ifndef SUBDEX_CORE_RATING_MAP_H_
#define SUBDEX_CORE_RATING_MAP_H_

#include <span>
#include <string>
#include <vector>

#include "core/rating_distribution.h"
#include "subjective/rating_group.h"
#include "util/status.h"

namespace subdex {

/// Identity of a candidate rating map for a given rating group: which
/// attribute partitions the group (GroupBy) and which rating dimension is
/// aggregated. W.l.o.g. (as in the paper) maps group by a single reviewer or
/// item attribute.
struct RatingMapKey {
  Side side = Side::kReviewer;
  size_t attribute = 0;
  size_t dimension = 0;

  friend bool operator==(const RatingMapKey&, const RatingMapKey&) = default;

  SUBDEX_NODISCARD std::string ToString(const SubjectiveDatabase& db) const;
};

struct RatingMapKeyHash {
  size_t operator()(const RatingMapKey& k) const {
    size_t h = k.side == Side::kReviewer ? 0x9e3779b9u : 0x85ebca6bu;
    h = h * 1315423911u + k.attribute;
    h = h * 1315423911u + k.dimension;
    return h;
  }
};

/// One (subgroup, rating distribution) pair of a rating map (Definition 2).
struct Subgroup {
  ValueCode value = kNullCode;  // kNullCode = records without a value
  RatingDistribution dist;

  SUBDEX_NODISCARD uint64_t count() const { return dist.total(); }
  SUBDEX_NODISCARD double average() const { return dist.Mean(); }
};

/// One subgroup as the interestingness criteria read it: its value, a view
/// of its counts, and its mean, computed once.
struct SubgroupCounts {
  ValueCode value = kNullCode;
  HistogramView hist;
  double mean = 0.0;
};

/// The display order of subgroups (Figure 3): mean descending, then value
/// ascending. Values are unique within a map, so the order is total.
inline bool InDisplayOrder(const SubgroupCounts& a, const SubgroupCounts& b) {
  if (a.mean != b.mean) return a.mean > b.mean;
  return a.value < b.value;
}

/// A rating map as the interestingness criteria read it: views of its
/// counts, borrowed from a RatingMap or read in place from a scan
/// (pruning/multi_aggregate_scan.h). `subgroups` lists the map's subgroups
/// in display order; Agreement sums in that order, so any other order would
/// change its last bits.
struct RatingMapCounts {
  HistogramView overall;
  std::span<const SubgroupCounts> subgroups;
  /// Size of the full rating group (RatingMap::full_group_size()).
  uint64_t full_group_size = 0;
};

/// A rating map (Definition 2): the partition of a rating group by one
/// attribute, each part carrying its rating distribution for one dimension,
/// plus the group-level distribution. Subgroups are ordered by descending
/// average score, matching the paper's presentation (Figure 3).
///
/// For multi-valued grouping attributes (e.g. cuisine) a record contributes
/// to every subgroup it belongs to; the overall distribution still counts
/// each record once.
class RatingMap {
 public:
  RatingMap() = default;
  RatingMap(RatingMapKey key, std::vector<Subgroup> subgroups,
            RatingDistribution overall);

  /// Builds the complete rating map of `group` for `key`.
  static RatingMap Build(const RatingGroup& group, const RatingMapKey& key);

  SUBDEX_NODISCARD const RatingMapKey& key() const { return key_; }
  SUBDEX_NODISCARD
  const std::vector<Subgroup>& subgroups() const { return subgroups_; }
  SUBDEX_NODISCARD size_t num_subgroups() const { return subgroups_.size(); }
  SUBDEX_NODISCARD
  const RatingDistribution& overall() const { return overall_; }
  /// Number of records aggregated (|g_R| restricted to processed data).
  SUBDEX_NODISCARD uint64_t group_size() const { return overall_.total(); }

  /// Size of the full rating group this map summarizes. Equals
  /// group_size() for completely built maps; snapshots taken mid-way
  /// through phased execution carry the full size so size-dependent
  /// measures (conciseness) estimate the final value instead of the
  /// prefix's.
  SUBDEX_NODISCARD uint64_t full_group_size() const {
    return full_group_size_ > 0 ? full_group_size_ : overall_.total();
  }
  void set_full_group_size(uint64_t n) { full_group_size_ = n; }

  /// The map as the criteria read it. `storage` receives one entry per
  /// subgroup and must outlive the returned view, as must this map.
  SUBDEX_NODISCARD
  RatingMapCounts Counts(std::vector<SubgroupCounts>* storage) const;

  /// Multi-line display form mirroring Figure 3.
  SUBDEX_NODISCARD std::string ToString(const SubjectiveDatabase& db) const;

 private:
  RatingMapKey key_;
  std::vector<Subgroup> subgroups_;
  RatingDistribution overall_;
  uint64_t full_group_size_ = 0;
};

/// Enumerates all candidate rating map keys for a group with selection
/// `selection`: every (multi-)categorical attribute of both tables crossed
/// with every rating dimension. Attributes pinned to a single value by the
/// selection are skipped — grouping by them yields one subgroup and carries
/// no information.
std::vector<RatingMapKey> AllRatingMapKeys(const SubjectiveDatabase& db,
                                           const GroupSelection& selection);

}  // namespace subdex

#endif  // SUBDEX_CORE_RATING_MAP_H_
