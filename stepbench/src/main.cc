// stepbench: runs one SubDEx exploration workload and prints its metrics.
//
//   stepbench --workload NAME --seed N --seconds S --trace 0|1
//             [--max-steps N] [--work-dir DIR] [--digests-out FILE]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. An untraced run reports the
// end-to-end metrics; a traced run (--trace 1) replays every step's layer
// calls after the step and reports the per-layer metrics. The lines before
// it, each starting with '#', describe the run. Exit code 0 means the run
// finished and every check passed; 1 means a check failed; 2 is a usage
// error.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "server/json.h"
#include "server/session_journal.h"
#include "workloads.h"

using namespace stepbench;

namespace {

int Usage(const char* message) {
  std::fprintf(stderr, "stepbench: %s\n", message);
  std::fprintf(stderr,
               "usage: stepbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--max-steps N] [--work-dir DIR] "
               "[--digests-out FILE]\n");
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string digests_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseU64(value, &n)) {
      options.seed = n;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace" && ParseU64(value, &n) && n <= 1) {
      options.trace = n == 1;
    } else if (flag == "--max-steps" && ParseU64(value, &n)) {
      options.max_steps = n;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--digests-out") {
      digests_out = value;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == options.workload;
  if (!have_workload || !known) return Usage("unknown or missing --workload");

  const RunReport report = RunWorkload(options);
  const std::vector<Metric> e2e = EndToEndMetrics(report);

  std::printf("# stepbench workload=%s seed=%llu trace=%d steps_attempted=%zu "
              "steps_failed=%zu steps_completed=%zu sessions=%zu cores=%zu "
              "cpu_s=%.3f wall_s=%.3f setup_rss_mb=%.2f\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, report.attempted, report.failed,
              report.completed(), report.sessions.size(), report.cores,
              report.cpu_s, report.wall_s, report.setup_peak_rss_mb);
  if (options.trace) {
    std::printf("# traced end-to-end:");
    for (const Metric& m : e2e) {
      std::printf(" %s=%.6g%s", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("\n");
  }
  if (!report.correct) {
    std::printf("# CHECK FAILED: %s\n", report.error.c_str());
  }
  if (!digests_out.empty()) {
    std::ofstream out(digests_out);
    for (const SessionDigests& s : report.sessions) {
      out << s.name << " distinct=" << s.distinct_selections;
      for (uint64_t d : s.digests) out << ' ' << subdex::DigestToHex(d);
      out << '\n';
    }
  }

  // The result line; numbers keep every digit of the measured double.
  subdex::JsonValue metrics = subdex::JsonValue::Object();
  for (const Metric& m : options.trace ? PerLayerMetrics(report) : e2e) {
    subdex::JsonValue metric = subdex::JsonValue::Object();
    metric.Set("value", subdex::JsonValue::Number(m.value));
    metric.Set("unit", subdex::JsonValue::Str(m.unit));
    metrics.Set(m.name, std::move(metric));
  }
  subdex::JsonValue result = subdex::JsonValue::Object();
  result.Set("correct", subdex::JsonValue::Bool(report.correct));
  result.Set("attempted", subdex::JsonValue::Number(
                              static_cast<double>(report.attempted)));
  result.Set("failed",
             subdex::JsonValue::Number(static_cast<double>(report.failed)));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  return report.correct ? 0 : 1;
}
