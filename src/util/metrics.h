#ifndef SUBDEX_UTIL_METRICS_H_
#define SUBDEX_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/status.h"

// Process-wide observability primitives (DESIGN.md §9). The engine's hot
// paths increment Counters, set Gauges and observe Histograms through a
// shared MetricsRegistry; exporters render a consistent snapshot in
// Prometheus text or JSON form. The paper's whole evaluation (§5, per-step
// latency / pruning effectiveness / cache behaviour) is expressible as
// queries over this registry, and interactive-exploration benchmarks
// (IDEBench) judge systems on per-interaction latency *distributions* —
// hence fixed-bucket histograms rather than running means.
//
// Cost model: a Counter::Increment is one relaxed atomic fetch_add on a
// thread-sharded, cache-line-padded slot (no false sharing between worker
// threads); Histogram::Observe is a binary search over the bounds plus
// three relaxed fetch_adds.

namespace subdex {

/// Monotonically increasing event count. Increments are sharded by thread
/// onto cache-line-sized slots, so concurrent workers never contend on one
/// cache line; Value() folds the shards (exact, but not a point-in-time
/// atomic snapshot across concurrent writers — fine for monitoring).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) noexcept {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }
  SUBDEX_NODISCARD uint64_t Value() const noexcept {
    uint64_t sum = 0;
    for (const Shard& s : shards_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  /// Zeroes the counter (test isolation only; races with writers).
  void Reset() noexcept {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  /// Each thread hashes to one fixed shard. A power of two so the modulo
  /// is a mask; 16 shards cover far more workers than the engine pool ever
  /// runs while keeping Value() a 16-load fold.
  static constexpr size_t kNumShards = 16;
  static size_t ShardIndex() noexcept;

  std::array<Shard, kNumShards> shards_{};
};

/// Instantaneous signed value (queue depth, entry count). One atomic —
/// gauges are set on cold paths, sharding would only blur Value().
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  SUBDEX_NODISCARD int64_t Value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Interpolated quantile extraction over fixed-bucket histogram data — the
/// one implementation shared by loadgen's latency recorder, the benches,
/// and consumers of the /metrics JSON export (Prometheus's
/// histogram_quantile() semantics, so a scrape and an in-process snapshot
/// agree). `bounds` are the inclusive upper bounds, `buckets` the
/// NON-cumulative per-bucket counts with one extra trailing +Inf entry
/// (the layout of Histogram::BucketCounts / HistogramSample::buckets).
///
/// Semantics, pinned by tests/metrics_test.cc:
///   - q is clamped to [0, 1]; the target rank is q * total_count.
///   - The quantile is linearly interpolated inside the bucket the rank
///     lands in; the first bucket's lower edge is 0 when bounds[0] > 0
///     (latency-style data), otherwise no interpolation is attempted and
///     bounds[0] itself is returned.
///   - A rank in the +Inf overflow bucket returns the last finite bound
///     (the histogram cannot resolve beyond it).
///   - An empty histogram (or empty `bounds`) returns NaN.
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& buckets, double q);

/// Fixed-bucket distribution. `bounds` are inclusive upper bounds in
/// strictly increasing order; an implicit +Inf bucket catches the rest
/// (Prometheus histogram semantics: each exported bucket is cumulative).
/// Buckets are fixed at construction so Observe never allocates.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  SUBDEX_NODISCARD const std::vector<double>& bounds() const { return bounds_; }

  void Observe(double value) noexcept;
  SUBDEX_NODISCARD uint64_t TotalCount() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  /// Interpolated quantile of the observed distribution; see
  /// HistogramQuantile for the exact semantics. NaN when empty.
  SUBDEX_NODISCARD double ValueAtQuantile(double q) const {
    return HistogramQuantile(bounds_, BucketCounts(), q);
  }
  SUBDEX_NODISCARD
  double Sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Per-bucket (non-cumulative) counts; size bounds().size() + 1, the
  /// last entry being the +Inf overflow bucket.
  SUBDEX_NODISCARD std::vector<uint64_t> BucketCounts() const;
  void Reset() noexcept;

 private:
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::vector<double> bounds_;
};

/// Point-in-time export of every registered metric, sorted by name. The
/// exporters are pure functions of this struct, so one snapshot renders
/// identically in both formats.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::string help;
    uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    std::string help;
    int64_t value = 0;
  };
  struct HistogramSample {
    std::string name;
    std::string help;
    std::vector<double> bounds;
    /// Non-cumulative per-bucket counts; bounds.size() + 1 entries, the
    /// last one the +Inf bucket.
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0.0;

    /// Interpolated quantile of the sampled distribution (see
    /// HistogramQuantile); how /metrics consumers and the load reports
    /// derive p50/p95/p99 from one scrape. NaN when the sample is empty.
    SUBDEX_NODISCARD double ValueAtQuantile(double q) const {
      return HistogramQuantile(bounds, buckets, q);
    }
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Prometheus text exposition format (# HELP / # TYPE lines, cumulative
  /// `_bucket{le=...}` series, `_sum` / `_count`).
  SUBDEX_NODISCARD std::string ToPrometheusText() const;
  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}} with full bucket detail.
  SUBDEX_NODISCARD std::string ToJson() const;
};

/// Process-wide metric registry. Get* registers on first use and returns a
/// stable reference — metrics are never destroyed or re-created, so call
/// sites may (and should) cache the reference in a static local and pay
/// the name lookup once. Re-registering an existing name returns the same
/// object (a histogram's original bounds win).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name, const std::string& help = "")
      SUBDEX_EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name, const std::string& help = "")
      SUBDEX_EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name, std::vector<double> bounds,
                          const std::string& help = "") SUBDEX_EXCLUDES(mu_);

  SUBDEX_NODISCARD MetricsSnapshot Snapshot() const SUBDEX_EXCLUDES(mu_);

  /// Zeroes every registered metric without unregistering it (cached
  /// references at call sites stay valid). Test isolation only.
  void ResetForTest() SUBDEX_EXCLUDES(mu_);

  /// Default latency buckets (ms): powers of two from 0.25 to 8192 — the
  /// sub-ms to multi-second range the paper's per-step latency tables
  /// (Table 2, Figs. 10-11) span.
  static std::vector<double> LatencyBucketsMs();
  /// Default magnitude buckets for sizes/counts: powers of four from 1 to
  /// ~10^6 (group sizes, candidate counts, fan-out widths).
  static std::vector<double> CountBuckets();
  /// Buckets for values already normalized into [0, 1] (bound gaps,
  /// utility spreads): ten equal 0.1-wide bins.
  static std::vector<double> UnitBuckets();

 private:
  template <typename M>
  struct Named {
    std::string name;
    std::string help;
    // unique_ptr keeps the metric's address stable across map rehashes.
    std::unique_ptr<M> metric;
  };

  mutable Mutex mu_{"metrics.registry", lock_rank::kMetricsRegistry};
  std::vector<Named<Counter>> counters_ SUBDEX_GUARDED_BY(mu_);
  std::vector<Named<Gauge>> gauges_ SUBDEX_GUARDED_BY(mu_);
  std::vector<Named<Histogram>> histograms_ SUBDEX_GUARDED_BY(mu_);
};

/// Renders the global registry in Prometheus text form — the one-liner for
/// examples and benches:  subdex::DumpMetrics(std::cout);
void DumpMetrics(std::ostream& out);

}  // namespace subdex

#endif  // SUBDEX_UTIL_METRICS_H_
