#include "engine/personalized.h"

#include <algorithm>

#include "util/check.h"

namespace subdex {

namespace {

// Attributes whose conjunct differs between the two predicates.
void CollectTouchedAttributes(const Predicate& from, const Predicate& to,
                              int side_tag,
                              std::vector<std::pair<int, size_t>>* out) {
  for (const AttributeValue& av : to.conjuncts()) {
    bool same = false;
    for (const AttributeValue& bv : from.conjuncts()) {
      if (bv.attribute == av.attribute && bv.code == av.code) {
        same = true;
        break;
      }
    }
    if (!same) out->push_back({side_tag, av.attribute});
  }
  for (const AttributeValue& av : from.conjuncts()) {
    if (!to.ConstrainsAttribute(av.attribute)) {
      out->push_back({side_tag, av.attribute});
    }
  }
}

std::vector<std::pair<int, size_t>> TouchedAttributes(
    const GroupSelection& from, const GroupSelection& to) {
  std::vector<std::pair<int, size_t>> touched;
  CollectTouchedAttributes(from.reviewer_pred, to.reviewer_pred, 0, &touched);
  CollectTouchedAttributes(from.item_pred, to.item_pred, 1, &touched);
  return touched;
}

}  // namespace

void OperationPreferenceModel::ObserveTransition(const GroupSelection& from,
                                                 const GroupSelection& to) {
  for (const auto& key : TouchedAttributes(from, to)) {
    double& count = touches_[key];
    count += 1.0;
    max_count_ = std::max(max_count_, count);
    total_ += 1.0;
  }
}

void OperationPreferenceModel::ObservePath(
    const std::vector<GroupSelection>& path) {
  for (size_t i = 1; i < path.size(); ++i) {
    ObserveTransition(path[i - 1], path[i]);
  }
}

double OperationPreferenceModel::Affinity(const GroupSelection& from,
                                          const GroupSelection& to) const {
  if (max_count_ <= 0.0) return 0.5;  // untrained: neutral
  std::vector<std::pair<int, size_t>> touched = TouchedAttributes(from, to);
  if (touched.empty()) return 0.5;
  double sum = 0.0;
  for (const auto& key : touched) {
    auto it = touches_.find(key);
    sum += it == touches_.end() ? 0.0 : it->second / max_count_;
  }
  return sum / static_cast<double>(touched.size());
}

std::vector<Recommendation> OperationPreferenceModel::Rerank(
    std::vector<Recommendation> recs, const GroupSelection& current,
    double blend) const {
  SUBDEX_CHECK(blend >= 0.0 && blend <= 1.0);
  if (recs.empty() || blend == 0.0) return recs;
  double max_utility = 0.0;
  for (const Recommendation& r : recs) {
    max_utility = std::max(max_utility, r.utility);
  }
  auto blended = [&](const Recommendation& r) {
    double utility = max_utility > 0.0 ? r.utility / max_utility : 0.0;
    return (1.0 - blend) * utility +
           blend * Affinity(current, r.operation.target);
  };
  std::stable_sort(recs.begin(), recs.end(),
                   [&](const Recommendation& a, const Recommendation& b) {
                     return blended(a) > blended(b);
                   });
  return recs;
}

}  // namespace subdex
