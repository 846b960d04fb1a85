#include "loadgen/report.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "server/json.h"
#include "server/json_wire.h"

namespace subdex::loadgen {

namespace {

double FiniteOrZero(double v) { return std::isfinite(v) ? v : 0.0; }

JsonValue Num(double v) { return JsonValue::Number(v); }
JsonValue Num(uint64_t v) {
  return JsonValue::Number(static_cast<double>(v));
}

JsonValue PointToJson(const TrajectoryPoint& p) {
  JsonValue out = JsonValue::Object();
  out.Set("target", JsonValue::Str(p.target));
  out.Set("dataset", JsonValue::Str(p.dataset));
  out.Set("scale", Num(p.scale));
  out.Set("loop", JsonValue::Str(p.loop));
  out.Set("concurrency", Num(p.concurrency));
  out.Set("steps_per_session", Num(p.steps_per_session));
  out.Set("think_time_mean_ms", Num(p.think_time_mean_ms));
  out.Set("step_deadline_ms", Num(p.step_deadline_ms));
  out.Set("repeats", Num(p.repeats));
  out.Set("wall_s", Num(p.wall_s));
  out.Set("sessions_started", Num(p.sessions_started));
  out.Set("sessions_completed", Num(p.sessions_completed));
  out.Set("steps_attempted", Num(p.steps_attempted));
  out.Set("steps_ok", Num(p.steps_ok));
  out.Set("steps_failed", Num(p.steps_failed));
  out.Set("degraded_fraction", Num(p.degraded_fraction));
  out.Set("cancelled_fraction", Num(p.cancelled_fraction));
  JsonValue latency = JsonValue::Object();
  latency.Set("p50", Num(p.latency_ms.p50));
  latency.Set("p95", Num(p.latency_ms.p95));
  latency.Set("p99", Num(p.latency_ms.p99));
  latency.Set("max", Num(p.latency_ms.max));
  latency.Set("mean", Num(p.latency_ms.mean));
  out.Set("latency_ms", std::move(latency));
  out.Set("steps_per_s", Num(p.steps_per_s));
  out.Set("shed_429", Num(p.shed_429));
  out.Set("shed_503", Num(p.shed_503));
  out.Set("transport_errors", Num(p.transport_errors));
  out.Set("arrivals_dropped", Num(p.arrivals_dropped));
  JsonValue cache = JsonValue::Object();
  cache.Set("hits", Num(p.cache.hits));
  cache.Set("misses", Num(p.cache.misses));
  cache.Set("hit_rate", Num(p.cache.hit_rate()));
  out.Set("cache", std::move(cache));
  return out;
}

/// Field extraction helpers: each returns false (into `ok`) when the key
/// is missing or the wrong kind, so ParsePoint can name the culprit.
const JsonValue* Require(const JsonValue& obj, std::string_view key,
                         JsonValue::Kind kind, std::string* missing) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind() != kind) {
    if (missing->empty()) *missing = std::string(key);
    return nullptr;
  }
  return v;
}

bool ReadString(const JsonValue& obj, std::string_view key, std::string* out,
                std::string* missing) {
  const JsonValue* v = Require(obj, key, JsonValue::Kind::kString, missing);
  if (v == nullptr) return false;
  *out = v->str();
  return true;
}

bool ReadDouble(const JsonValue& obj, std::string_view key, double* out,
                std::string* missing) {
  const JsonValue* v = Require(obj, key, JsonValue::Kind::kNumber, missing);
  if (v == nullptr) return false;
  Result<double> number = WireNumber(*v, key);
  if (!number.ok()) {
    if (missing->empty()) *missing = std::string(key);
    return false;
  }
  *out = number.value();
  return true;
}

bool ReadU64(const JsonValue& obj, std::string_view key, uint64_t* out,
             std::string* missing) {
  double d = 0.0;
  if (!ReadDouble(obj, key, &d, missing)) return false;
  if (!(d >= 0.0) || !std::isfinite(d)) {
    if (missing->empty()) *missing = std::string(key);
    return false;
  }
  *out = static_cast<uint64_t>(d);
  return true;
}

Result<TrajectoryPoint> ParsePoint(const JsonValue& obj) {
  TrajectoryPoint p;
  std::string missing;
  bool ok = ReadString(obj, "target", &p.target, &missing) &&
            ReadString(obj, "dataset", &p.dataset, &missing) &&
            ReadU64(obj, "scale", &p.scale, &missing) &&
            ReadString(obj, "loop", &p.loop, &missing) &&
            ReadU64(obj, "concurrency", &p.concurrency, &missing) &&
            ReadU64(obj, "steps_per_session", &p.steps_per_session,
                    &missing) &&
            ReadDouble(obj, "think_time_mean_ms", &p.think_time_mean_ms,
                       &missing) &&
            ReadDouble(obj, "step_deadline_ms", &p.step_deadline_ms,
                       &missing) &&
            ReadU64(obj, "repeats", &p.repeats, &missing) &&
            ReadDouble(obj, "wall_s", &p.wall_s, &missing) &&
            ReadU64(obj, "sessions_started", &p.sessions_started, &missing) &&
            ReadU64(obj, "sessions_completed", &p.sessions_completed,
                    &missing) &&
            ReadU64(obj, "steps_attempted", &p.steps_attempted, &missing) &&
            ReadU64(obj, "steps_ok", &p.steps_ok, &missing) &&
            ReadU64(obj, "steps_failed", &p.steps_failed, &missing) &&
            ReadDouble(obj, "degraded_fraction", &p.degraded_fraction,
                       &missing) &&
            ReadDouble(obj, "cancelled_fraction", &p.cancelled_fraction,
                       &missing) &&
            ReadDouble(obj, "steps_per_s", &p.steps_per_s, &missing) &&
            ReadU64(obj, "shed_429", &p.shed_429, &missing) &&
            ReadU64(obj, "shed_503", &p.shed_503, &missing) &&
            ReadU64(obj, "transport_errors", &p.transport_errors, &missing) &&
            ReadU64(obj, "arrivals_dropped", &p.arrivals_dropped, &missing);
  const JsonValue* latency =
      Require(obj, "latency_ms", JsonValue::Kind::kObject, &missing);
  if (ok && latency != nullptr) {
    ok = ReadDouble(*latency, "p50", &p.latency_ms.p50, &missing) &&
         ReadDouble(*latency, "p95", &p.latency_ms.p95, &missing) &&
         ReadDouble(*latency, "p99", &p.latency_ms.p99, &missing) &&
         ReadDouble(*latency, "max", &p.latency_ms.max, &missing) &&
         ReadDouble(*latency, "mean", &p.latency_ms.mean, &missing);
  }
  const JsonValue* cache =
      Require(obj, "cache", JsonValue::Kind::kObject, &missing);
  if (ok && cache != nullptr) {
    ok = ReadU64(*cache, "hits", &p.cache.hits, &missing) &&
         ReadU64(*cache, "misses", &p.cache.misses, &missing);
  }
  if (!ok || latency == nullptr || cache == nullptr) {
    return Status::InvalidArgument(
        "trajectory point: missing or mistyped field '" + missing + "'");
  }
  return p;
}

}  // namespace

void SetMeasurements(TrajectoryPoint* point, const LoadRunResult& run) {
  point->wall_s = run.wall_s;
  point->sessions_started = run.sessions_started;
  point->sessions_completed = run.sessions_completed;
  point->steps_attempted = run.steps_attempted;
  point->steps_ok = run.steps_ok;
  point->steps_failed = run.steps_failed;
  point->degraded_fraction =
      run.steps_ok == 0 ? 0.0
                        : static_cast<double>(run.steps_degraded) /
                              static_cast<double>(run.steps_ok);
  point->cancelled_fraction =
      run.steps_ok == 0 ? 0.0
                        : static_cast<double>(run.steps_cancelled) /
                              static_cast<double>(run.steps_ok);
  point->latency_ms.p50 = FiniteOrZero(run.latency->ValueAtQuantile(0.50));
  point->latency_ms.p95 = FiniteOrZero(run.latency->ValueAtQuantile(0.95));
  point->latency_ms.p99 = FiniteOrZero(run.latency->ValueAtQuantile(0.99));
  point->latency_ms.max = run.latency->max_ms();
  point->latency_ms.mean = run.latency->mean_ms();
  point->steps_per_s = run.steps_per_s();
  point->shed_429 = run.shed_429;
  point->shed_503 = run.shed_503;
  point->transport_errors = run.transport_errors;
  point->arrivals_dropped = run.arrivals_dropped;
  point->cache.hits = run.counters.cache_hits;
  point->cache.misses = run.counters.cache_misses;
}

std::string ReportToJson(const TrajectoryReport& report) {
  JsonValue out = JsonValue::Object();
  out.Set("schema", JsonValue::Str(kReportSchema));
  out.Set("schema_version", Num(static_cast<uint64_t>(kReportSchemaVersion)));
  out.Set("tool", JsonValue::Str(kReportTool));
  out.Set("seed", Num(report.seed));
  out.Set("notes", JsonValue::Str(report.notes));
  JsonValue points = JsonValue::Array();
  for (const TrajectoryPoint& p : report.points) {
    points.Append(PointToJson(p));
  }
  out.Set("points", std::move(points));
  return out.Dump();
}

Result<TrajectoryReport> ParseReport(std::string_view text) {
  Result<JsonValue> doc = JsonValue::Parse(text);
  if (!doc.ok()) return doc.status();
  const JsonValue& root = doc.value();
  if (!root.is_object()) {
    return Status::InvalidArgument("trajectory report: not a JSON object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->str() != kReportSchema) {
    return Status::InvalidArgument(
        "trajectory report: schema is not '" + std::string(kReportSchema) +
        "'");
  }
  const JsonValue* version = root.Find("schema_version");
  double version_number = -1;
  if (version != nullptr) {
    if (Result<double> number = WireNumber(*version, "schema_version");
        number.ok()) {
      version_number = number.value();
    }
  }
  if (version_number != kReportSchemaVersion) {
    return Status::InvalidArgument(
        "trajectory report: unsupported schema_version (want " +
        std::to_string(kReportSchemaVersion) + ")");
  }
  TrajectoryReport report;
  std::string missing;
  if (!ReadU64(root, "seed", &report.seed, &missing) ||
      !ReadString(root, "notes", &report.notes, &missing)) {
    return Status::InvalidArgument(
        "trajectory report: missing or mistyped field '" + missing + "'");
  }
  const JsonValue* points = root.Find("points");
  if (points == nullptr || !points->is_array()) {
    return Status::InvalidArgument(
        "trajectory report: missing 'points' array");
  }
  for (size_t i = 0; i < points->items().size(); ++i) {
    Result<TrajectoryPoint> point = ParsePoint(points->items()[i]);
    if (!point.ok()) {
      return Status::InvalidArgument("point " + std::to_string(i) + ": " +
                                     point.status().message());
    }
    report.points.push_back(std::move(point.value()));
  }
  return report;
}

Status ValidateReport(const TrajectoryReport& report, bool smoke) {
  if (report.points.empty()) {
    return Status::InvalidArgument("trajectory report: no points");
  }
  for (size_t i = 0; i < report.points.size(); ++i) {
    const TrajectoryPoint& p = report.points[i];
    const std::string where = "point " + std::to_string(i) + ": ";
    if (p.target != "engine" && p.target != "server") {
      return Status::InvalidArgument(where + "unknown target '" + p.target +
                                     "'");
    }
    if (p.loop != "closed" && p.loop != "open") {
      return Status::InvalidArgument(where + "unknown loop '" + p.loop + "'");
    }
    if (p.concurrency == 0) {
      return Status::InvalidArgument(where + "concurrency is 0");
    }
    if (p.repeats == 0) return Status::InvalidArgument(where + "repeats is 0");
    if (p.steps_ok + p.steps_failed > p.steps_attempted) {
      return Status::InvalidArgument(
          where + "steps_ok + steps_failed exceed steps_attempted");
    }
    if (!(p.degraded_fraction >= 0.0 && p.degraded_fraction <= 1.0) ||
        !(p.cancelled_fraction >= 0.0 && p.cancelled_fraction <= 1.0)) {
      return Status::InvalidArgument(where + "fraction outside [0, 1]");
    }
    const double latencies[] = {p.latency_ms.p50, p.latency_ms.p95,
                                p.latency_ms.p99, p.latency_ms.max,
                                p.latency_ms.mean};
    for (double v : latencies) {
      if (!std::isfinite(v) || v < 0.0) {
        return Status::InvalidArgument(where +
                                       "latency not finite non-negative");
      }
    }
    // Quantiles of one distribution are monotone in q, and the top one
    // stays at or below the exact maximum (LatencyRecorder caps its
    // interpolation there), so no quantile exceeds max.
    if (p.latency_ms.p50 > p.latency_ms.p95 ||
        p.latency_ms.p95 > p.latency_ms.p99) {
      return Status::InvalidArgument(where + "quantiles not monotone");
    }
    if (p.latency_ms.p99 > p.latency_ms.max) {
      return Status::InvalidArgument(where + "p99 above max");
    }
    if (p.steps_ok > 0 && !(p.latency_ms.p99 > 0.0)) {
      return Status::InvalidArgument(where + "steps succeeded but p99 is 0");
    }
    if (smoke) {
      if (p.steps_ok == 0) {
        return Status::InvalidArgument(where + "smoke: no accepted steps");
      }
      if (p.loop == "closed" && p.concurrency == 1 &&
          p.cancelled_fraction != 0.0) {
        return Status::InvalidArgument(
            where + "smoke: cancellations at concurrency 1");
      }
    }
  }
  return Status::Ok();
}

Status WriteReportFile(const std::string& path,
                       const TrajectoryReport& report) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << ReportToJson(report) << "\n";
  out.flush();
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::Ok();
}

Result<TrajectoryReport> ReadReportFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read from '" + path + "' failed");
  return ParseReport(buffer.str());
}

}  // namespace subdex::loadgen
