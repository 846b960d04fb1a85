#include "core/interestingness.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace subdex {

double InterestingnessScores::Get(size_t criterion) const {
  switch (criterion) {
    case 0:
      return conciseness;
    case 1:
      return agreement;
    case 2:
      return self_peculiarity;
    case 3:
      return global_peculiarity;
  }
  SUBDEX_CHECK_MSG(false, "criterion index out of range");
  return 0.0;
}

const char* UtilityCriterionName(UtilityCriterion c) {
  switch (c) {
    case UtilityCriterion::kConciseness:
      return "conciseness";
    case UtilityCriterion::kAgreement:
      return "agreement";
    case UtilityCriterion::kSelfPeculiarity:
      return "self-peculiarity";
    case UtilityCriterion::kGlobalPeculiarity:
      return "global-peculiarity";
  }
  return "unknown";
}

double RawConciseness(const RatingMap& map) {
  if (map.num_subgroups() == 0) return 0.0;
  return static_cast<double>(map.group_size()) /
         static_cast<double>(map.num_subgroups());
}

double Conciseness(const RatingMapCounts& map, const UtilityConfig& config) {
  SUBDEX_CHECK(config.conciseness_softener > 0.0);
  if (map.subgroups.empty()) return 0.0;
  // The compaction gain |g_R|/|rm| [15] splits into coverage * 1/|rm| when
  // normalized by the database size. We squash each factor separately:
  //   subgroup factor  C / (C + |rm|)       — few human-readable bars,
  //   coverage factor  (|g_R| / |DB|)^beta  — summarizes many records.
  // Normalizing the raw gain directly would saturate toward 1 on any large
  // group, letting conciseness mask every other criterion under the max
  // aggregation; this form tops out around 0.85 and decays smoothly for
  // small groups, so peculiar maps can win and trivial few-record groups
  // cannot.
  double c = config.conciseness_softener;
  double score = c / (c + static_cast<double>(map.subgroups.size()));
  if (config.database_size > 0) {
    double coverage = std::min(
        1.0, static_cast<double>(map.full_group_size) /
                 static_cast<double>(config.database_size));
    score *= std::pow(coverage, config.conciseness_coverage_exponent);
  }
  return score;
}

double Agreement(const RatingMapCounts& map, const UtilityConfig& config) {
  if (map.subgroups.empty()) return 0.0;
  // Count-weighted dispersion, regularized: the prior contributes
  // `agreement_prior_strength` pseudo-records at a typical dispersion of
  // 0.3 * (scale - 1) (1.2 on a 5-point scale), so a 2-record unanimous
  // subgroup is weak evidence of agreement while a 200-record one is
  // strong.
  double prior_sigma = 0.3 * static_cast<double>(map.overall.scale - 1);
  double lambda = config.agreement_prior_strength;
  double weighted_var = lambda * prior_sigma * prior_sigma;
  double total = lambda;
  for (const SubgroupCounts& sg : map.subgroups) {
    double sd = sg.hist.StdDev(sg.mean);
    weighted_var += static_cast<double>(sg.hist.total) * sd * sd;
    total += static_cast<double>(sg.hist.total);
  }
  double sigma_bar = std::sqrt(weighted_var / total);
  return 1.0 / (1.0 + sigma_bar);
}

double SmoothedTotalVariation(HistogramView a, HistogramView b,
                              double smoothing) {
  SUBDEX_CHECK(a.scale == b.scale);
  int m = a.scale;
  double pseudo = smoothing / static_cast<double>(m);
  double a_total = static_cast<double>(a.total) + smoothing;
  double b_total = static_cast<double>(b.total) + smoothing;
  double sum = 0.0;
  for (int i = 0; i < m; ++i) {
    double pa = (static_cast<double>(a.counts[i]) + pseudo) / a_total;
    double pb = (static_cast<double>(b.counts[i]) + pseudo) / b_total;
    sum += std::fabs(pa - pb);
  }
  return 0.5 * sum;
}

double SmoothedTotalVariation(const RatingDistribution& a,
                              const RatingDistribution& b, double smoothing) {
  return SmoothedTotalVariation(a.view(), b.view(), smoothing);
}

namespace {

// Distribution distance per the configured peculiarity measure, in [0, 1].
double PeculiarityDistance(HistogramView a, HistogramView b, double smoothing,
                           const UtilityConfig& config) {
  switch (config.peculiarity_measure) {
    case PeculiarityMeasure::kTotalVariation:
      return SmoothedTotalVariation(a, b, smoothing);
    case PeculiarityMeasure::kKlDivergence: {
      // KlDivergence already applies add-one smoothing; squash the
      // unbounded divergence into [0, 1). Low-count histograms are damped
      // by mixing toward the reference proportionally to the smoothing
      // mass, mirroring SmoothedTotalVariation's reliability behavior.
      double kl = a.KlDivergence(b);
      double damp = static_cast<double>(a.total) /
                    (static_cast<double>(a.total) + smoothing);
      return (1.0 - std::exp(-kl)) * damp;
    }
  }
  return 0.0;
}

}  // namespace

double SelfPeculiarity(const RatingMapCounts& map,
                       const UtilityConfig& config) {
  double best = 0.0;
  for (const SubgroupCounts& sg : map.subgroups) {
    best = std::max(best,
                    PeculiarityDistance(sg.hist, map.overall,
                                        config.peculiarity_smoothing, config));
  }
  return best;
}

double GlobalPeculiarity(const RatingMapCounts& map,
                         const std::vector<RatingDistribution>& seen,
                         const UtilityConfig& config) {
  double smoothing = config.peculiarity_smoothing;
  if (config.database_size > 0) {
    smoothing = std::max(
        smoothing, config.global_peculiarity_smoothing_fraction *
                       static_cast<double>(config.database_size));
  }
  double best = 0.0;
  for (const RatingDistribution& ref : seen) {
    best = std::max(best, PeculiarityDistance(map.overall, ref.view(),
                                              smoothing, config));
  }
  return best;
}

InterestingnessScores ComputeScores(const RatingMapCounts& map,
                                    const std::vector<RatingDistribution>& seen,
                                    const UtilityConfig& config) {
  InterestingnessScores s;
  s.conciseness = Conciseness(map, config);
  s.agreement = Agreement(map, config);
  s.self_peculiarity = SelfPeculiarity(map, config);
  s.global_peculiarity = GlobalPeculiarity(map, seen, config);
  return s;
}

double Conciseness(const RatingMap& map, const UtilityConfig& config) {
  std::vector<SubgroupCounts> storage;
  return Conciseness(map.Counts(&storage), config);
}

double Agreement(const RatingMap& map, const UtilityConfig& config) {
  std::vector<SubgroupCounts> storage;
  return Agreement(map.Counts(&storage), config);
}

double SelfPeculiarity(const RatingMap& map, const UtilityConfig& config) {
  std::vector<SubgroupCounts> storage;
  return SelfPeculiarity(map.Counts(&storage), config);
}

double GlobalPeculiarity(const RatingMap& map,
                         const std::vector<RatingDistribution>& seen,
                         const UtilityConfig& config) {
  std::vector<SubgroupCounts> storage;
  return GlobalPeculiarity(map.Counts(&storage), seen, config);
}

InterestingnessScores ComputeScores(const RatingMap& map,
                                    const std::vector<RatingDistribution>& seen,
                                    const UtilityConfig& config) {
  std::vector<SubgroupCounts> storage;
  return ComputeScores(map.Counts(&storage), seen, config);
}

double Utility(const InterestingnessScores& scores,
               const UtilityConfig& config) {
  switch (config.aggregation) {
    case UtilityAggregation::kMax:
      return std::max({scores.conciseness, scores.agreement,
                       scores.self_peculiarity, scores.global_peculiarity});
    case UtilityAggregation::kAverage:
      return (scores.conciseness + scores.agreement + scores.self_peculiarity +
              scores.global_peculiarity) /
             4.0;
    case UtilityAggregation::kSingleCriterion:
      return scores.Get(static_cast<size_t>(config.single));
  }
  return 0.0;
}

}  // namespace subdex
