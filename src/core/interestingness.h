#ifndef SUBDEX_CORE_INTERESTINGNESS_H_
#define SUBDEX_CORE_INTERESTINGNESS_H_

#include <vector>

#include "core/rating_map.h"
#include "util/status.h"

namespace subdex {

/// The four normalized interestingness criteria of Section 3.2.3 / 4.1.
/// All values lie in [0, 1] with fixed squashing functions, so that partial
/// estimates computed during phased execution are directly comparable to
/// final values and confidence intervals remain valid.
struct InterestingnessScores {
  double conciseness = 0.0;
  double agreement = 0.0;
  double self_peculiarity = 0.0;
  double global_peculiarity = 0.0;

  SUBDEX_NODISCARD double Get(size_t criterion) const;
  static constexpr size_t kNumCriteria = 4;
};

/// How the per-criterion scores combine into a utility (Section 5.2.3
/// studies these variants; the paper's default is the maximum).
enum class UtilityAggregation {
  kMax,
  kAverage,
  kSingleCriterion,
};

enum class UtilityCriterion {
  kConciseness = 0,
  kAgreement = 1,
  kSelfPeculiarity = 2,
  kGlobalPeculiarity = 3,
};

const char* UtilityCriterionName(UtilityCriterion c);

/// Distance underlying the peculiarity scores. The paper's default is the
/// total variation distance; Kullback-Leibler divergence is listed as the
/// alternative (Section 4.1).
enum class PeculiarityMeasure {
  kTotalVariation,
  kKlDivergence,
};

struct UtilityConfig {
  UtilityAggregation aggregation = UtilityAggregation::kMax;
  /// Used only when aggregation == kSingleCriterion.
  UtilityCriterion single = UtilityCriterion::kConciseness;
  /// Softener C of the conciseness normalization C / (C + |rm|): the
  /// subgroup-count factor reaches 0.5 at C subgroups. The default caps
  /// conciseness at 0.75 (a 2-subgroup map), giving the criterion the same
  /// dynamic range as the peculiarity scores — under the max aggregation a
  /// criterion that always scored higher would mask the others. See
  /// Conciseness() for the full normalization.
  double conciseness_softener = 6.0;
  /// Total number of rating records in the database, used to express the
  /// compaction gain relative to the dataset ("summarizes a large number
  /// of records"). 0 disables the coverage factor (standalone scoring of a
  /// single map). The SDE engine fills this in automatically.
  uint64_t database_size = 0;
  /// Exponent of the coverage factor (|g_R| / database_size)^beta. Small
  /// values keep moderate groups competitive while still ranking
  /// few-record groups clearly below database-scale ones.
  double conciseness_coverage_exponent = 0.15;
  /// Strength (pseudo-count) of the dispersion prior regularizing the
  /// agreement score. Tiny subgroups are trivially unanimous; blending the
  /// observed dispersion with a typical-dispersion prior of this weight
  /// keeps agreement a statement about evidence, not sample size.
  double agreement_prior_strength = 5.0;
  /// Pseudo-count mass of the Laplace smoothing applied to distributions
  /// before the total-variation peculiarity comparisons; prevents
  /// few-record subgroups from looking maximally peculiar.
  double peculiarity_smoothing = 4.0;
  /// Distribution distance used by both peculiarity scores. KL divergence
  /// is squashed into [0, 1] as 1 - exp(-KL) so the utility stays
  /// normalized.
  PeculiarityMeasure peculiarity_measure = PeculiarityMeasure::kTotalVariation;
  /// Global peculiarity compares a whole group against previously seen
  /// ones, so its smoothing additionally scales with the database: a group
  /// covering a sliver of the data can deviate arbitrarily by chance and
  /// should not read as a new facet. Effective smoothing =
  /// max(peculiarity_smoothing, fraction * database_size).
  double global_peculiarity_smoothing_fraction = 0.005;
};

/// Raw compaction gain |g_R| / |rm| (Chandola & Kumar): average number of
/// records summarized per subgroup. 0 for an empty map.
double RawConciseness(const RatingMap& map);

// Each criterion has one implementation, over RatingMapCounts; the
// RatingMap overloads only build that view. The phased estimator reads the
// same view from its scan's counts in place, so an estimate equals the
// criterion of the map the scan would build, bit for bit.

/// Normalized conciseness C / (C + |rm|), in (0, 1).
double Conciseness(const RatingMapCounts& map, const UtilityConfig& config);
double Conciseness(const RatingMap& map, const UtilityConfig& config);

/// Agreement 1/(1 + sigma_bar) where sigma_bar is the count-weighted
/// average subgroup dispersion, regularized toward a typical-dispersion
/// prior (see UtilityConfig::agreement_prior_strength), in (0, 1]. High
/// when many reviewers inside each subgroup agree.
double Agreement(const RatingMapCounts& map, const UtilityConfig& config);
double Agreement(const RatingMap& map, const UtilityConfig& config);

/// Self peculiarity: the maximum smoothed total-variation distance between
/// a subgroup's distribution and the whole group's distribution, in [0, 1]
/// (following [51], the map's score is the max over subgroups).
double SelfPeculiarity(const RatingMapCounts& map,
                       const UtilityConfig& config);
double SelfPeculiarity(const RatingMap& map, const UtilityConfig& config);

/// Global peculiarity: the maximum smoothed total-variation distance
/// between the map's overall distribution and the distribution of each
/// previously displayed map. Defined as 0 when nothing has been displayed
/// yet, so the first step is driven by the other criteria.
double GlobalPeculiarity(const RatingMapCounts& map,
                         const std::vector<RatingDistribution>& seen,
                         const UtilityConfig& config);
double GlobalPeculiarity(const RatingMap& map,
                         const std::vector<RatingDistribution>& seen,
                         const UtilityConfig& config);

/// Total-variation distance between Laplace-smoothed views of two
/// histograms: each distribution receives `smoothing` pseudo-counts spread
/// uniformly over the scale, so distances between low-count histograms are
/// damped toward 0 while large histograms are effectively unsmoothed.
double SmoothedTotalVariation(HistogramView a, HistogramView b,
                              double smoothing);
double SmoothedTotalVariation(const RatingDistribution& a,
                              const RatingDistribution& b, double smoothing);

/// All four criteria at once.
InterestingnessScores ComputeScores(const RatingMapCounts& map,
                                    const std::vector<RatingDistribution>& seen,
                                    const UtilityConfig& config);
InterestingnessScores ComputeScores(const RatingMap& map,
                                    const std::vector<RatingDistribution>& seen,
                                    const UtilityConfig& config);

/// Aggregates the criteria into the utility u(rm, RM). The paper's default
/// is the maximum of the four.
double Utility(const InterestingnessScores& scores,
               const UtilityConfig& config);

}  // namespace subdex

#endif  // SUBDEX_CORE_INTERESTINGNESS_H_
