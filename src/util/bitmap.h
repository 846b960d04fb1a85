#ifndef SUBDEX_UTIL_BITMAP_H_
#define SUBDEX_UTIL_BITMAP_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace subdex {

/// Fixed-size bitset used for fast row-membership tests. The subjective
/// database keeps one bitmap per (attribute, value) so that rating groups —
/// conjunctions of attribute-value pairs over reviewers and items — can be
/// materialized with a handful of ANDs instead of per-row predicate checks.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t num_bits, bool value = false);

  SUBDEX_NODISCARD size_t size() const { return num_bits_; }

  void Set(size_t i);
  void Clear(size_t i);
  SUBDEX_NODISCARD bool Test(size_t i) const;

  /// In-place intersection; both operands must have the same size.
  void And(const Bitmap& other);
  /// In-place union; both operands must have the same size.
  void Or(const Bitmap& other);

  /// Number of set bits.
  SUBDEX_NODISCARD size_t Count() const;

  /// Indices of all set bits, ascending, in a vector sized exactly Count().
  SUBDEX_NODISCARD std::vector<uint32_t> ToIndices() const;

  /// Sets every bit.
  void SetAll();

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace subdex

#endif  // SUBDEX_UTIL_BITMAP_H_
