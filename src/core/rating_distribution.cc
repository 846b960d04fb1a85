#include "core/rating_distribution.h"

#include <cmath>

#include "util/check.h"

namespace subdex {

double HistogramView::Mean() const {
  if (total == 0) return 0.0;
  double sum = 0.0;
  for (int i = 0; i < scale; ++i) {
    sum += static_cast<double>(counts[i]) * static_cast<double>(i + 1);
  }
  return sum / static_cast<double>(total);
}

double HistogramView::StdDev(double mean) const {
  if (total == 0) return 0.0;
  double sq = 0.0;
  for (int i = 0; i < scale; ++i) {
    double v = static_cast<double>(i + 1) - mean;
    sq += static_cast<double>(counts[i]) * v * v;
  }
  return std::sqrt(sq / static_cast<double>(total));
}

double HistogramView::KlDivergence(HistogramView other) const {
  SUBDEX_CHECK(scale == other.scale);
  // Add-one (Laplace) smoothing on counts keeps the divergence finite.
  const uint64_t m = static_cast<uint64_t>(scale);
  double p_total = static_cast<double>(total + m);
  double q_total = static_cast<double>(other.total + m);
  double kl = 0.0;
  for (int i = 0; i < scale; ++i) {
    double p = static_cast<double>(counts[i] + 1) / p_total;
    double q = static_cast<double>(other.counts[i] + 1) / q_total;
    kl += p * std::log(p / q);
  }
  return kl;
}

RatingDistribution::RatingDistribution(int scale) {
  SUBDEX_CHECK(scale >= 2);
  counts_.assign(static_cast<size_t>(scale), 0);
}

RatingDistribution::RatingDistribution(HistogramView view)
    : counts_(view.counts, view.counts + view.scale), total_(view.total) {
  SUBDEX_CHECK(view.scale >= 2);
}

void RatingDistribution::Add(int score) { AddCount(score, 1); }

void RatingDistribution::AddCount(int score, uint64_t n) {
  SUBDEX_CHECK(score >= 1 && score <= scale());
  counts_[static_cast<size_t>(score - 1)] += n;
  total_ += n;
}

void RatingDistribution::Merge(const RatingDistribution& other) {
  SUBDEX_CHECK(scale() == other.scale());
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

uint64_t RatingDistribution::count(int score) const {
  SUBDEX_CHECK(score >= 1 && score <= scale());
  return counts_[static_cast<size_t>(score - 1)];
}

double RatingDistribution::Probability(int score) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(score)) / static_cast<double>(total_);
}

std::vector<double> RatingDistribution::Probabilities() const {
  std::vector<double> p(counts_.size(), 0.0);
  if (total_ == 0) return p;
  double mass = 0.0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    p[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
    mass += p[i];
  }
  // total_ is maintained as the sum of the per-score counts, so the
  // probability vector carries unit mass; every distance measure below
  // (TVD, KL, EMD) silently assumes this.
  SUBDEX_DCHECK_LE(std::fabs(mass - 1.0), 1e-9);
  return p;
}

int RatingDistribution::Mode() const {
  if (total_ == 0) return 0;
  size_t best = 0;
  for (size_t i = 1; i < counts_.size(); ++i) {
    if (counts_[i] > counts_[best]) best = i;
  }
  return static_cast<int>(best + 1);
}

namespace {
// Probability view that falls back to uniform for empty histograms, so the
// distance measures stay total functions.
std::vector<double> ProbsOrUniform(const RatingDistribution& d) {
  std::vector<double> p = d.Probabilities();
  if (d.total() == 0) {
    double u = 1.0 / static_cast<double>(p.size());
    for (double& x : p) x = u;
  }
  return p;
}
}  // namespace

double RatingDistribution::TotalVariationDistance(
    const RatingDistribution& other) const {
  SUBDEX_CHECK(scale() == other.scale());
  std::vector<double> p = ProbsOrUniform(*this);
  std::vector<double> q = ProbsOrUniform(other);
  double sum = 0.0;
  for (size_t i = 0; i < p.size(); ++i) sum += std::fabs(p[i] - q[i]);
  double tvd = 0.5 * sum;
  // TVD of two unit-mass distributions is a similarity score in [0, 1];
  // interestingness criteria clip against exactly this range.
  SUBDEX_DCHECK_GE(tvd, 0.0);
  SUBDEX_DCHECK_LE(tvd, 1.0 + 1e-9);
  return tvd;
}

double RatingDistribution::Emd(const RatingDistribution& other) const {
  SUBDEX_CHECK(scale() == other.scale());
  SUBDEX_CHECK(scale() >= 2);
  std::vector<double> p = ProbsOrUniform(*this);
  std::vector<double> q = ProbsOrUniform(other);
  double cdf_diff = 0.0;
  double work = 0.0;
  for (size_t i = 0; i + 1 < p.size(); ++i) {
    cdf_diff += p[i] - q[i];
    work += std::fabs(cdf_diff);
  }
  double emd = work / static_cast<double>(scale() - 1);
  // Earth mover's distance on the normalized 1-D scale is in [0, 1]: the
  // maximum is all mass travelling the full scale width.
  SUBDEX_DCHECK_GE(emd, 0.0);
  SUBDEX_DCHECK_LE(emd, 1.0 + 1e-9);
  return emd;
}

std::string RatingDistribution::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(i + 1) + ":" + std::to_string(counts_[i]);
  }
  out += "}";
  return out;
}

}  // namespace subdex
