#ifndef STEPBENCH_SAMPLE_STATS_H_
#define STEPBENCH_SAMPLE_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace stepbench {

/// Nearest-rank order statistic of the raw samples: the smallest sample
/// with at least `q` of all samples at or below it (q in (0, 1]). Exact —
/// no buckets, no interpolation — so it is always one of the samples and
/// never exceeds the maximum. 0 for an empty input.
double OrderStatistic(std::vector<double> samples, double q);

/// Number of samples strictly above the nearest-rank `q` statistic's rank:
/// the tail that supports a reported percentile.
size_t SamplesBeyond(size_t n, double q);

/// Process CPU time (user + system) in seconds, from getrusage.
double ProcessCpuSeconds();

/// Peak resident set size of the process in MB: VmHWM from
/// /proc/self/status, or getrusage's ru_maxrss where that is missing.
double PeakRssMb();

/// Number of CPUs this process may run on (sched_getaffinity), falling
/// back to std::thread::hardware_concurrency.
size_t UsableCores();

/// One metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace stepbench

#endif  // STEPBENCH_SAMPLE_STATS_H_
