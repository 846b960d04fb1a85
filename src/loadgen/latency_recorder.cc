#include "loadgen/latency_recorder.h"

#include <cmath>
#include <cstring>

namespace subdex::loadgen {

namespace {

std::vector<double> MakeBounds() {
  std::vector<double> bounds;
  // 2^(1/8): eight buckets per octave. 0.05 ms .. ~2 min covers everything
  // from a cache-hit step to a pathologically stalled one; beyond the top
  // bound the +Inf bucket still counts the step (and max_ms stays exact).
  const double ratio = std::exp2(1.0 / 8.0);
  for (double b = 0.05; b < 130000.0; b *= ratio) bounds.push_back(b);
  return bounds;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

const std::vector<double>& LatencyRecorder::Bounds() {
  static const std::vector<double> kBounds = MakeBounds();
  return kBounds;
}

LatencyRecorder::LatencyRecorder() : histogram_(Bounds()) {}

void LatencyRecorder::Observe(double ms) noexcept {
  if (!(ms >= 0.0)) ms = 0.0;  // NaN / negative clock skew: clamp
  histogram_.Observe(ms);

  uint64_t bits = DoubleBits(ms);
  uint64_t seen = max_bits_.load(std::memory_order_relaxed);
  while (bits > seen && !max_bits_.compare_exchange_weak(
                            seen, bits, std::memory_order_relaxed)) {
  }
}

double LatencyRecorder::max_ms() const {
  return BitsDouble(max_bits_.load(std::memory_order_relaxed));
}

}  // namespace subdex::loadgen
