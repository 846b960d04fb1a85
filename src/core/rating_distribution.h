#ifndef SUBDEX_CORE_RATING_DISTRIBUTION_H_
#define SUBDEX_CORE_RATING_DISTRIBUTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace subdex {

/// Read-only view of a rating histogram: `counts[s - 1]` occurrences of
/// score s for s in [1, scale], and their sum `total`. The formulas below
/// read only this, so a RatingDistribution and a scan's flat count array
/// (pruning/multi_aggregate_scan.h) share one implementation of each and
/// give bit-identical results on equal counts.
struct HistogramView {
  const uint64_t* counts = nullptr;
  int scale = 0;
  uint64_t total = 0;

  /// Mean score (0 if empty).
  SUBDEX_NODISCARD double Mean() const;
  /// Population standard deviation of scores around `mean`, which must be
  /// Mean() (0 if empty). Taking the mean lets a caller compute it once.
  SUBDEX_NODISCARD double StdDev(double mean) const;
  /// Kullback-Leibler divergence KL(this || other) with add-one smoothing.
  /// Scales must match.
  SUBDEX_NODISCARD double KlDivergence(HistogramView other) const;
};

/// Histogram of integer rating scores on the scale {1, ..., m}
/// (Definition 1). Counts are exact; probability views normalize lazily.
class RatingDistribution {
 public:
  RatingDistribution() = default;
  explicit RatingDistribution(int scale);
  /// A copy of the counts behind `view`.
  explicit RatingDistribution(HistogramView view);

  SUBDEX_NODISCARD
  int scale() const { return static_cast<int>(counts_.size()); }

  /// Adds one score in [1, scale].
  void Add(int score);
  /// Adds `n` occurrences of `score`.
  void AddCount(int score, uint64_t n);
  /// Merges another histogram of the same scale.
  void Merge(const RatingDistribution& other);

  SUBDEX_NODISCARD uint64_t total() const { return total_; }
  SUBDEX_NODISCARD uint64_t count(int score) const;

  SUBDEX_NODISCARD HistogramView view() const {
    return {counts_.data(), scale(), total_};
  }

  /// Probability of `score`; 0 for an empty distribution.
  SUBDEX_NODISCARD double Probability(int score) const;

  /// Probability vector [P(1), ..., P(m)] (all zeros if empty).
  SUBDEX_NODISCARD std::vector<double> Probabilities() const;

  /// Mean score (0 if empty).
  SUBDEX_NODISCARD double Mean() const { return view().Mean(); }

  /// Most frequent score — the paper's alternative subgroup aggregation
  /// ("the highest probability for the rating dimension"). Ties resolve to
  /// the smaller score; 0 if empty.
  SUBDEX_NODISCARD int Mode() const;

  /// Population standard deviation of scores (0 if empty).
  SUBDEX_NODISCARD double StdDev() const {
    HistogramView v = view();
    return v.StdDev(v.Mean());
  }

  /// Total variation distance to `other`: (1/2) * sum |p_i - q_i|, in
  /// [0, 1]. Empty distributions are treated as uniform so the measure is
  /// total. Scales must match.
  SUBDEX_NODISCARD
  double TotalVariationDistance(const RatingDistribution& other) const;

  /// Kullback-Leibler divergence KL(this || other) with add-one smoothing,
  /// provided as the paper's alternative peculiarity measure.
  SUBDEX_NODISCARD
  double KlDivergence(const RatingDistribution& other) const {
    return view().KlDivergence(other.view());
  }

  /// 1-D earth mover's distance to `other` on normalized probabilities:
  /// sum of |CDF differences| divided by (m - 1), so the result is in
  /// [0, 1]. Scales must match.
  SUBDEX_NODISCARD double Emd(const RatingDistribution& other) const;

  /// Display form, e.g. "{1:3,2:1,3:2,4:1,5:5}".
  SUBDEX_NODISCARD std::string ToString() const;

 private:
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace subdex

#endif  // SUBDEX_CORE_RATING_DISTRIBUTION_H_
