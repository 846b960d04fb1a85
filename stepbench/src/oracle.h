#ifndef STEPBENCH_ORACLE_H_
#define STEPBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/config.h"
#include "engine/sde_engine.h"
#include "subjective/rating_group.h"
#include "subjective/subjective_db.h"

namespace stepbench {

/// Record ids of `selection`, found by scanning every rating record and
/// testing its reviewer and item cells against each conjunct. Deliberately
/// naive: it reads the raw tables and shares no code with
/// SubjectiveDatabase::MatchRecords or the group cache.
std::vector<subdex::RecordId> NaiveSelect(
    const subdex::SubjectiveDatabase& db,
    const subdex::GroupSelection& selection);

/// Recounts one displayed map over `records`: every subgroup's count and
/// average, and the overall distribution. A record with several values of
/// a multi-valued attribute counts in each of its subgroups; a record with
/// no value counts in the null subgroup. Returns "" when the map matches,
/// else a description of the first difference.
std::string RecountMap(const subdex::SubjectiveDatabase& db,
                       const std::vector<subdex::RecordId>& records,
                       const subdex::ScoredRatingMap& map);

/// Checks the digests a server acknowledged against the digests of an
/// independent execution of the same script. "" when they agree.
std::string CompareDigests(const std::vector<uint64_t>& acknowledged,
                           const std::vector<uint64_t>& reference);

/// Checks the steps of one exploration session, in order, against the
/// naive recount and the properties the method must have:
///   - the group size equals NaiveSelect's count;
///   - every displayed map equals RecountMap;
///   - every score lies in [0, 1], the utility is the maximum of the four
///     criteria, and the DW utility is (1 - m_d / m) times the utility
///     (Eq. 1), with m_d and m counted from the maps this checker has seen
///     displayed (1 with a single rating dimension: nothing to balance);
///   - the recommendation list has at most o entries, is ordered by
///     utility, each utility is the sum of its maps' DW utilities (Eq. 2),
///     and each target group has at least min_group_size records (naive
///     count) and is neither the current selection nor an explored one.
class SessionChecker {
 public:
  SessionChecker(const subdex::SubjectiveDatabase* db,
                 const subdex::EngineConfig& config);

  /// Checks `step` and then records it into the session history. Returns
  /// "" when the step passes.
  std::string Check(const subdex::StepResult& step);

 private:
  double DimensionWeight(const std::vector<size_t>& counts, size_t total,
                         size_t d) const;
  std::string CheckScores(const subdex::ScoredRatingMap& map,
                          const std::vector<size_t>& counts,
                          size_t total) const;

  const subdex::SubjectiveDatabase* db_;
  subdex::EngineConfig config_;
  std::vector<size_t> dimension_counts_;
  size_t maps_seen_ = 0;
  std::vector<subdex::GroupSelection> explored_;
};

}  // namespace stepbench

#endif  // STEPBENCH_ORACLE_H_
