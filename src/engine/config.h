#ifndef SUBDEX_ENGINE_CONFIG_H_
#define SUBDEX_ENGINE_CONFIG_H_

#include <cstdint>

#include "core/distance.h"
#include "core/interestingness.h"
#include "subjective/operation.h"

namespace subdex {

/// Which pruning optimizations the RM generator applies (Section 4.2.1).
/// The full SubDEx configuration is kHybrid; the restricted variants are
/// the scalability baselines of Section 5.1.
enum class PruningScheme {
  kNone,
  kConfidenceInterval,
  kMab,
  kHybrid,
};

const char* PruningSchemeName(PruningScheme scheme);

/// How the final k-size display set is chosen from the generated candidates
/// (Section 5.2.3 studies the extremes).
enum class SelectionMode {
  /// Top-(k*l) by DW utility, then GMM picks the k most diverse (default).
  kUtilityAndDiversity,
  /// Top-k by DW utility (equivalent to l = 1).
  kUtilityOnly,
  /// GMM over every candidate map, ignoring utility ranking.
  kDiversityOnly,
};

const char* SelectionModeName(SelectionMode mode);

/// All knobs of the SDE engine. Defaults mirror Table 3 of the paper.
struct EngineConfig {
  /// Number of rating maps displayed per step (k).
  size_t k = 3;
  /// Number of next-step recommendations (o).
  size_t o = 3;
  /// Pruning-diversity factor (l): the generator keeps the top k*l maps.
  size_t l = 3;
  /// Number of phases of the phased execution framework (n); the paper
  /// adopts SeeDB's finding that 10 works well.
  size_t num_phases = 10;
  PruningScheme pruning = PruningScheme::kHybrid;
  /// "Combining Multiple Aggregates" (Section 4.2.1): candidate maps that
  /// group by the same attribute share one scan per phase. Disabled only
  /// by the sharing ablation benchmark.
  bool share_scans = true;
  /// Confidence parameter of the Hoeffding-Serfling intervals.
  double ci_delta = 0.05;
  UtilityConfig utility;
  /// Apply the dimension-weighted utility of Eq. 1. Disabled only by the
  /// Figure 9 ablation ("without weights").
  bool use_dimension_weights = true;
  SelectionMode selection = SelectionMode::kUtilityAndDiversity;
  MapDistanceKind map_distance = MapDistanceKind::kSignatureEmd;
  /// Evaluate candidate operations on a thread pool ("parallel query
  /// execution"); the No-Parallelism / Naive baselines clear this.
  bool parallel_recommendations = true;
  /// Number of workers of the engine-owned thread pool ("available
  /// cores"); 1 disables the pool entirely.
  size_t num_threads = 4;
  /// Shuffle seed of the phased framework (record order within phases).
  uint64_t seed = 42;
  /// Candidate-operation enumeration knobs.
  OperationEnumerationOptions operations;
  /// Candidate operations yielding fewer records are discarded.
  size_t min_group_size = 5;
  /// Capacity (entries) of the LRU rating-group cache shared by the engine
  /// and the recommendation builder; 0 disables caching. A hit saves one
  /// materialization (a gather over the selection's rating lists, not a
  /// scan of |R|) for candidate operations that point back toward
  /// already-evaluated selections (roll-ups, changes, revisited regions),
  /// at the cost of keeping up to this many record lists.
  size_t group_cache_capacity = 512;
  /// Cap on fully evaluated candidate operations per step (0 = evaluate
  /// every enumerated candidate). The paper's Recommendation Builder
  /// evaluates an o-proportional budget (top-o operations per displayed
  /// map), which is what makes its sequential variants scale linearly in o
  /// (Fig. 11b); setting this to a multiple of k*o reproduces that cost
  /// model. Single-edit candidates are prioritized under a cap.
  size_t max_operation_evaluations = 0;
};

}  // namespace subdex

#endif  // SUBDEX_ENGINE_CONFIG_H_
