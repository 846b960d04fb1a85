#ifndef SUBDEX_LOADGEN_LATENCY_RECORDER_H_
#define SUBDEX_LOADGEN_LATENCY_RECORDER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "util/metrics.h"
#include "util/status.h"

namespace subdex::loadgen {

/// HDR-style per-interaction latency recorder: a fixed geometric bucket
/// ladder (value resolution bounded by the bucket ratio, ~9% — the
/// precision class HdrHistogram targets) plus an exact maximum, since the
/// max is the one statistic interpolation cannot defend. Observe is
/// lock-free (relaxed bucket increments + a CAS max), so every driver
/// worker records into one shared recorder; quantiles come from the same
/// HistogramQuantile interpolation the /metrics consumers use, capped at
/// the exact max.
///
/// Deliberately NOT a util/metrics.h Histogram: the measuring instrument
/// must keep recording in a -DSUBDEX_METRICS=OFF build, where the metrics
/// primitives compile to no-ops — a benchmark whose results silently
/// depend on an observability toggle would be a trap.
class LatencyRecorder {
 public:
  LatencyRecorder();
  LatencyRecorder(const LatencyRecorder&) = delete;
  LatencyRecorder& operator=(const LatencyRecorder&) = delete;

  void Observe(double ms) noexcept;

  SUBDEX_NODISCARD uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  SUBDEX_NODISCARD double sum_ms() const {
    return sum_.load(std::memory_order_relaxed);
  }
  SUBDEX_NODISCARD double mean_ms() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : sum_ms() / static_cast<double>(n);
  }
  /// Exact largest observed value (0 when empty), not a bucket edge.
  SUBDEX_NODISCARD double max_ms() const;
  /// Interpolated quantile (HistogramQuantile semantics) capped at the
  /// exact max_ms(): interpolating inside the top occupied bucket can land
  /// above the largest value actually observed. NaN when empty.
  SUBDEX_NODISCARD double ValueAtQuantile(double q) const {
    const double value = HistogramQuantile(Bounds(), BucketCounts(), q);
    const double max = max_ms();
    return value > max ? max : value;
  }
  /// Non-cumulative per-bucket counts, Bounds().size() + 1 entries (the
  /// last one the +Inf overflow bucket) — the HistogramQuantile layout.
  SUBDEX_NODISCARD std::vector<uint64_t> BucketCounts() const;

  /// The shared bucket ladder: geometric from 50 µs to ~2 minutes at
  /// ratio 2^(1/8) (8 buckets per octave, ~170 buckets).
  static const std::vector<double>& Bounds();

 private:
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// Bit pattern of the max (doubles >= 0 order like their bit patterns).
  std::atomic<uint64_t> max_bits_{0};
};

}  // namespace subdex::loadgen

#endif  // SUBDEX_LOADGEN_LATENCY_RECORDER_H_
