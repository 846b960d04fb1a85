#ifndef SUBDEX_ENGINE_PERSONALIZED_H_
#define SUBDEX_ENGINE_PERSONALIZED_H_

#include <map>
#include <vector>

#include "engine/recommendation_builder.h"
#include "util/status.h"

namespace subdex {

/// Log-based personalization — the modular Recommendation Builder
/// replacement the paper sketches ("personalized recommendations using
/// logs of previous operations [23, 42]", Section 5.2.2 / conclusion).
///
/// The model learns, from past sessions, how often the user's operations
/// touched each (side, attribute) — e.g. an analyst who always slices by
/// neighborhood and cuisine — and re-ranks SubDEx's candidate
/// recommendations by blending their Eq. 2 utility with that affinity.
class OperationPreferenceModel {
 public:
  OperationPreferenceModel() = default;

  /// Learns from one applied operation: every attribute added, removed or
  /// changed between the two selections gets a count.
  void ObserveTransition(const GroupSelection& from, const GroupSelection& to);

  /// Learns from every consecutive pair of a session's selections (its
  /// exploration path, or the selections read back from its journal).
  void ObservePath(const std::vector<GroupSelection>& path);

  /// Total observed attribute touches.
  SUBDEX_NODISCARD double total_observations() const { return total_; }

  /// Affinity of moving from `from` to `to`, in [0, 1]: the mean relative
  /// popularity of the attributes the operation touches (0.5 when the
  /// model has seen nothing, so an untrained model is neutral).
  SUBDEX_NODISCARD
  double Affinity(const GroupSelection& from, const GroupSelection& to) const;

  /// Re-ranks recommendations by (1 - blend) * normalized utility +
  /// blend * affinity; blend in [0, 1], 0 keeps SubDEx's order.
  SUBDEX_NODISCARD
  std::vector<Recommendation> Rerank(std::vector<Recommendation> recs,
                                     const GroupSelection& current,
                                     double blend) const;

 private:
  // (0 = reviewer, 1 = item, attribute) -> touch count.
  std::map<std::pair<int, size_t>, double> touches_;
  double total_ = 0.0;
  double max_count_ = 0.0;
};

}  // namespace subdex

#endif  // SUBDEX_ENGINE_PERSONALIZED_H_
