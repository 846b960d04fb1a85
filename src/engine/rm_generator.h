#ifndef SUBDEX_ENGINE_RM_GENERATOR_H_
#define SUBDEX_ENGINE_RM_GENERATOR_H_

#include <vector>

#include "core/rating_map.h"
#include "core/seen_maps.h"
#include "engine/config.h"
#include "util/deadline.h"
#include "util/status.h"

namespace subdex {

class ThreadPool;

/// A rating map together with its final (full-data) interestingness scores.
struct ScoredRatingMap {
  RatingMap map;
  InterestingnessScores scores;
  double utility = 0.0;
  double dw_utility = 0.0;
};

/// Work counters of one Generate() call, reported by the scalability
/// benchmarks.
struct RmGeneratorStats {
  size_t num_candidates = 0;
  size_t pruned_ci = 0;
  size_t pruned_mab = 0;
  size_t mab_accepted = 0;
  /// Total (record, dimension) histogram updates — the dominant cost.
  size_t record_updates = 0;
  size_t phases_run = 0;

  void Merge(const RmGeneratorStats& other);
};

/// The RM-Generator (Section 4.2.1): Algorithm 1's phase-based execution
/// framework. Starts from every candidate rating map of the group, processes
/// the (shuffled) rating group in `num_phases` equal fractions with shared
/// multi-aggregate scans, estimates each candidate's dimension-weighted
/// utility with per-criterion confidence intervals after every phase, and
/// prunes low-utility candidates via confidence intervals and/or
/// Successive-Accepts-and-Rejects, per the configured scheme.
///
/// Returns (w.h.p.) the `k_prime` candidates with the highest DW utility,
/// scored exactly over the full group, sorted by descending DW utility.
class RmGenerator {
 public:
  /// `pool` may be null (serial execution). With a pool, the per-phase
  /// scan updates and the final exact-scoring pass — the two loops that
  /// dominate step latency — run on it; results are identical to serial
  /// execution (disjoint state per scan/candidate, deterministic reduction
  /// order).
  explicit RmGenerator(const EngineConfig* config, ThreadPool* pool = nullptr)
      : config_(config), pool_(pool) {}

  /// `stop` bounds the work (anytime semantics): the phase loop checks the
  /// budget at phase boundaries and stops consuming the group once it is
  /// exhausted, returning maps scored over the records processed so far —
  /// still sorted by descending (partial-data) DW utility. Phase 0 always
  /// runs, so every returned map covers at least 1/num_phases of the
  /// group. `*truncated` (if non-null) is set to true when the budget cut
  /// the phase loop short, and left untouched otherwise.
  SUBDEX_NODISCARD
  std::vector<ScoredRatingMap> Generate(const RatingGroup& group,
                                        const SeenMapsTracker& seen,
                                        size_t k_prime,
                                        RmGeneratorStats* stats = nullptr,
                                        const StopToken& stop = StopToken(),
                                        bool* truncated = nullptr) const;

 private:
  const EngineConfig* config_;
  ThreadPool* pool_;
};

}  // namespace subdex

#endif  // SUBDEX_ENGINE_RM_GENERATOR_H_
