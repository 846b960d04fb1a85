#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>
#include <thread>

#include "util/check.h"
#include "util/string_util.h"

namespace subdex {

namespace {

// Prometheus exposition: help text is a single line with backslash and
// newline escaped (label values would additionally escape '"', but SubDEx
// metrics are label-free except the generated `le` bounds, which are
// numeric).
std::string EscapePrometheusHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string EscapeJsonString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Renders a bucket bound as the shortest decimal that parses back to the
// identical double (so 0.25 stays "0.25", 1 stays "1"). Round-tripping is
// the conformance requirement: a scraper must recover the registered
// bounds exactly, and the previous fixed-precision rendering turned
// 1048576 into "1.04858e+06" and 0.1*7 into "0.7" (a different double).
std::string FormatBound(double bound) {
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, bound);
    if (std::strtod(buf, nullptr) == bound) break;
  }
  return buf;
}

}  // namespace

double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& buckets, double q) {
  if (bounds.empty() || buckets.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);

  const size_t overflow = buckets.size() - 1;
  double cumulative_before = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0 || cumulative_before + in_bucket < rank) {
      cumulative_before += in_bucket;
      continue;
    }
    // The rank lands in bucket i. The overflow bucket has no finite upper
    // edge to interpolate toward; the best unbiased answer the fixed
    // buckets allow is the last finite bound.
    if (i >= overflow || i >= bounds.size()) return bounds.back();
    const double upper = bounds[i];
    double lower;
    if (i > 0) {
      lower = bounds[i - 1];
    } else if (upper > 0) {
      lower = 0.0;  // latency-style data: the first bucket starts at 0
    } else {
      return upper;  // no defensible lower edge; don't invent one
    }
    const double fraction = (rank - cumulative_before) / in_bucket;
    return lower + (upper - lower) * fraction;
  }
  // rank == total with trailing empty buckets: the last occupied bucket
  // already returned above; reaching here means floating-point slack.
  return bounds.back();
}

size_t Counter::ShardIndex() noexcept {
  // One hash per thread, cached: the hot path is a single thread_local
  // read. Thread ids recycle, but a collision only costs shared slots,
  // never correctness.
  thread_local const size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) &
      (kNumShards - 1);
  return index;
}

Histogram::Histogram(std::vector<double> bounds)
    : buckets_(bounds.size() + 1), bounds_(std::move(bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    SUBDEX_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                     "histogram bounds must be strictly increasing");
  }
}

void Histogram::Observe(double value) noexcept {
  // The first bound >= value (bounds are inclusive upper edges); a value
  // past the last bound lands in the +Inf slot, NaN in bucket 0. Binary
  // search keeps long ladders, such as loadgen's ~170 buckets, cheap.
  const size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  MutexLock lock(mu_);
  for (auto& named : counters_) {
    if (named.name == name) return *named.metric;
  }
  counters_.push_back({name, help, std::make_unique<Counter>()});
  return *counters_.back().metric;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  MutexLock lock(mu_);
  for (auto& named : gauges_) {
    if (named.name == name) return *named.metric;
  }
  gauges_.push_back({name, help, std::make_unique<Gauge>()});
  return *gauges_.back().metric;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const std::string& help) {
  MutexLock lock(mu_);
  for (auto& named : histograms_) {
    if (named.name == name) return *named.metric;
  }
  histograms_.push_back(
      {name, help, std::make_unique<Histogram>(std::move(bounds))});
  return *histograms_.back().metric;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    MutexLock lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& named : counters_) {
      snap.counters.push_back({named.name, named.help, named.metric->Value()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& named : gauges_) {
      snap.gauges.push_back({named.name, named.help, named.metric->Value()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& named : histograms_) {
      MetricsSnapshot::HistogramSample sample;
      sample.name = named.name;
      sample.help = named.help;
      sample.bounds = named.metric->bounds();
      sample.buckets = named.metric->BucketCounts();
      sample.count = named.metric->TotalCount();
      sample.sum = named.metric->Sum();
      snap.histograms.push_back(std::move(sample));
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(mu_);
  for (auto& named : counters_) named.metric->Reset();
  for (auto& named : gauges_) named.metric->Reset();
  for (auto& named : histograms_) named.metric->Reset();
}

std::vector<double> MetricsRegistry::LatencyBucketsMs() {
  std::vector<double> bounds;
  for (double b = 0.25; b <= 8192.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

std::vector<double> MetricsRegistry::CountBuckets() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 1048576.0; b *= 4.0) bounds.push_back(b);
  return bounds;
}

std::vector<double> MetricsRegistry::UnitBuckets() {
  std::vector<double> bounds;
  // i / 10.0 is the double nearest each decimal (what strtod("0.7") gives);
  // 0.1 * i accumulates differently (0.1 * 7 != 0.7) and would force the
  // exporter to render 17 digits for a bound meant to read as "0.7".
  for (int i = 1; i <= 10; ++i) bounds.push_back(i / 10.0);
  return bounds;
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::ostringstream out;
  for (const CounterSample& c : counters) {
    if (!c.help.empty()) {
      out << "# HELP " << c.name << ' ' << EscapePrometheusHelp(c.help)
          << '\n';
    }
    out << "# TYPE " << c.name << " counter\n";
    out << c.name << ' ' << c.value << '\n';
  }
  for (const GaugeSample& g : gauges) {
    if (!g.help.empty()) {
      out << "# HELP " << g.name << ' ' << EscapePrometheusHelp(g.help)
          << '\n';
    }
    out << "# TYPE " << g.name << " gauge\n";
    out << g.name << ' ' << g.value << '\n';
  }
  for (const HistogramSample& h : histograms) {
    if (!h.help.empty()) {
      out << "# HELP " << h.name << ' ' << EscapePrometheusHelp(h.help)
          << '\n';
    }
    out << "# TYPE " << h.name << " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += i < h.buckets.size() ? h.buckets[i] : 0;
      out << h.name << "_bucket{le=\"" << FormatBound(h.bounds[i]) << "\"} "
          << cumulative << '\n';
    }
    out << h.name << "_bucket{le=\"+Inf\"} " << h.count << '\n';
    out << h.name << "_sum " << FormatDouble(h.sum, 6) << '\n';
    out << h.name << "_count " << h.count << '\n';
  }
  return out.str();
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << EscapeJsonString(counters[i].name)
        << "\":" << counters[i].value;
  }
  out << "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << EscapeJsonString(gauges[i].name)
        << "\":" << gauges[i].value;
  }
  out << "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    if (i > 0) out << ',';
    out << '"' << EscapeJsonString(h.name) << "\":{\"bounds\":[";
    for (size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out << ',';
      out << FormatBound(h.bounds[b]);
    }
    out << "],\"buckets\":[";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out << ',';
      out << h.buckets[b];
    }
    out << "],\"count\":" << h.count
        << ",\"sum\":" << FormatDouble(h.sum, 6) << '}';
  }
  out << "}}";
  return out.str();
}

void DumpMetrics(std::ostream& out) {
  out << MetricsRegistry::Global().Snapshot().ToPrometheusText();
}

}  // namespace subdex
