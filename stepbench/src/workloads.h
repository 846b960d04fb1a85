#ifndef STEPBENCH_WORKLOADS_H_
#define STEPBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "engine/config.h"
#include "replay.h"
#include "sample_stats.h"
#include "subjective/subjective_db.h"

namespace stepbench {

/// The workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

struct RunOptions {
  std::string workload;
  /// Seeds every user choice (RP choices, the UD script); the datasets
  /// have fixed seeds of their own.
  uint64_t seed = 1;
  /// Length of the timed phase; an untraced run continues past it until
  /// at least 100 steps have completed.
  double seconds = 10.0;
  /// Replay every step's layer calls (per-layer metrics) after the step.
  bool trace = false;
  /// When > 0, each session slot stops after this many steps instead of
  /// at the end of `seconds` (short, fixed-length runs for the tests).
  size_t max_steps = 0;
  /// Set-up is timed this many times (all but the last in forked child
  /// processes); setup_s is the median.
  size_t setup_repeats = 5;
  /// hotel-ud-journal: the in-process server's cap on a request body. The
  /// tests lower it below a step body's size to make the server refuse
  /// every step.
  size_t max_body_bytes = size_t{1} << 20;
  /// Scratch space for the journals; created and emptied by the run.
  std::string work_dir = ".bench_work";
};

/// One exploration session of a run: its digest chain (one digest per
/// step, in order) and how many distinct selections it visited.
struct SessionDigests {
  std::string name;
  std::vector<uint64_t> digests;
  size_t distinct_selections = 0;
};

struct RunReport {
  bool correct = true;
  /// First failed check ("" when every check passed).
  std::string error;
  size_t attempted = 0;
  size_t failed = 0;
  size_t cores = 0;
  /// Timed phase: wall time and process CPU (user + system).
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Client-observed latency of every completed step.
  std::vector<double> step_ms;
  /// The engine's own elapsed_ms of every completed step, in the order of
  /// step_ms.
  std::vector<double> engine_ms;
  /// hotel-ud-journal: client round trip minus the response's elapsed_ms.
  std::vector<double> overhead_ms;
  double setup_s = 0.0;
  double generate_s = 0.0;
  double server_start_s = 0.0;
  double response_bytes = 0.0;
  double journal_bytes = 0.0;
  double mirror_bytes = 0.0;
  /// Peak resident set size right after set-up and at the end of the
  /// timed phase.
  double setup_peak_rss_mb = 0.0;
  double peak_rss_mb = 0.0;
  /// Traced runs only.
  LayerTotals layers;
  std::vector<SessionDigests> sessions;

  size_t completed() const { return step_ms.size(); }
};

/// Runs one workload: set-up (timed `setup_repeats` times), the timed
/// phase, then every correctness check. Forks when `setup_repeats` > 1, so
/// it must be called while the process runs a single thread.
RunReport RunWorkload(const RunOptions& options);

/// The end-to-end metrics of an untraced run, in BENCHMARK.json order.
std::vector<Metric> EndToEndMetrics(const RunReport& report);

/// The per-layer metrics of a traced run, in BENCHMARK.json order. Layers
/// a workload does not exercise read 0.
std::vector<Metric> PerLayerMetrics(const RunReport& report);

/// The benchmark's own seeded generator for user choices (never the
/// program's RNG): splitmix64-seeded mt19937_64 per session.
class ChoiceRng {
 public:
  ChoiceRng(uint64_t seed, uint64_t stream_a, uint64_t stream_b);
  double Uniform();
  size_t Index(size_t n);

 private:
  std::mt19937_64 gen_;
};

/// The session engine configuration: the paper's defaults (Table 3), one
/// thread per session as subdexd serves it, and a budget of 80 candidate
/// operations.
subdex::EngineConfig SessionConfig();

/// The dataset of a workload, generated from its fixed seed.
std::unique_ptr<subdex::SubjectiveDatabase> MakeDataset(
    const std::string& workload);

}  // namespace stepbench

#endif  // STEPBENCH_WORKLOADS_H_
