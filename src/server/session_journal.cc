#include "server/session_journal.h"

#include <cstdint>
#include <filesystem>
#include <map>
#include <system_error>
#include <utility>

#include "storage/query_parser.h"
#include "util/fault_point.h"
#include "util/metrics.h"

namespace subdex {

namespace {

namespace fs = std::filesystem;

constexpr char kSegmentSuffix[] = ".sjl";
constexpr char kMirrorSuffix[] = ".log";

struct JournalMetrics {
  Counter& appends;
  Counter& write_failures;
  Counter& rotations;
  Counter& torn_tails;

  static JournalMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static JournalMetrics m{
        reg.GetCounter("subdex_journal_appends_total",
                       "Records appended to session journals"),
        reg.GetCounter("subdex_journal_write_failures_total",
                       "Journal append/fsync/rotate failures; each one "
                       "latches its session read-only"),
        reg.GetCounter("subdex_journal_rotations_total",
                       "Journal segment rotations"),
        reg.GetCounter("subdex_journal_torn_tails_total",
                       "Half-written final records truncated during "
                       "recovery"),
    };
    return m;
  }
};

/// "s12-ab34cd56.000007.sjl" -> ("s12-ab34cd56", 7). False when the name
/// is not a segment of any session (foreign files are skipped, not
/// errors: operators drop READMEs into data directories).
bool ParseSegmentName(const std::string& name, std::string* id,
                      uint64_t* seq) {
  const size_t suffix_len = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= suffix_len ||
      name.compare(name.size() - suffix_len, suffix_len, kSegmentSuffix) !=
          0) {
    return false;
  }
  std::string stem = name.substr(0, name.size() - suffix_len);
  size_t dot = stem.rfind('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == stem.size()) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = dot + 1; i < stem.size(); ++i) {
    char c = stem[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = stem.substr(0, dot);
  *seq = value;
  return true;
}

}  // namespace

const char* JournalFsyncName(JournalFsync policy) {
  switch (policy) {
    case JournalFsync::kNever: return "never";
    case JournalFsync::kBatch: return "batch";
    case JournalFsync::kEveryRecord: return "every_record";
  }
  return "unknown";
}

bool ParseJournalFsync(std::string_view text, JournalFsync* out) {
  if (text == "never") {
    *out = JournalFsync::kNever;
  } else if (text == "batch") {
    *out = JournalFsync::kBatch;
  } else if (text == "every_record") {
    *out = JournalFsync::kEveryRecord;
  } else {
    return false;
  }
  return true;
}

std::string DigestToHex(uint64_t digest) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[digest & 0xF];
    digest >>= 4;
  }
  return out;
}

bool HexToDigest(std::string_view hex, uint64_t* out) {
  if (hex.size() != 16) return false;
  uint64_t value = 0;
  for (char c : hex) {
    uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | nibble;
  }
  *out = value;
  return true;
}

JsonValue MakeCreateRecord(const std::string& dataset, double ttl_ms,
                           const EngineConfig& config) {
  JsonValue record = JsonValue::Object();
  record.Set("type", JsonValue::Str("create"));
  record.Set("v", JsonValue::Number(1));
  record.Set("dataset", JsonValue::Str(dataset));
  record.Set("ttl_ms", JsonValue::Number(ttl_ms));
  // The resolved values of every client-overridable engine knob (the
  // server/server.cc allowlist): replay must rebuild the engine exactly
  // as the create request configured it, immune to later changes in the
  // server's template defaults.
  JsonValue knobs = JsonValue::Object();
  knobs.Set("k", JsonValue::Number(static_cast<double>(config.k)));
  knobs.Set("o", JsonValue::Number(static_cast<double>(config.o)));
  knobs.Set("l", JsonValue::Number(static_cast<double>(config.l)));
  knobs.Set("num_phases",
            JsonValue::Number(static_cast<double>(config.num_phases)));
  knobs.Set("num_threads",
            JsonValue::Number(static_cast<double>(config.num_threads)));
  knobs.Set("seed", JsonValue::Number(static_cast<double>(config.seed)));
  knobs.Set("min_group_size",
            JsonValue::Number(static_cast<double>(config.min_group_size)));
  knobs.Set("max_candidates",
            JsonValue::Number(
                static_cast<double>(config.operations.max_candidates)));
  knobs.Set("group_cache_capacity",
            JsonValue::Number(
                static_cast<double>(config.group_cache_capacity)));
  record.Set("config", std::move(knobs));
  return record;
}

JsonValue MakeStepRecord(const std::string& reviewers,
                         const std::string& items,
                         bool with_recommendations, bool degraded,
                         uint64_t digest) {
  JsonValue record = JsonValue::Object();
  record.Set("type", JsonValue::Str("step"));
  record.Set("reviewers", JsonValue::Str(reviewers));
  record.Set("items", JsonValue::Str(items));
  record.Set("with_recommendations", JsonValue::Bool(with_recommendations));
  record.Set("degraded", JsonValue::Bool(degraded));
  record.Set("digest", JsonValue::Str(DigestToHex(digest)));
  return record;
}

JsonValue MakeResetRecord() {
  JsonValue record = JsonValue::Object();
  record.Set("type", JsonValue::Str("reset"));
  return record;
}

JsonValue MakeDeleteRecord() {
  JsonValue record = JsonValue::Object();
  record.Set("type", JsonValue::Str("delete"));
  return record;
}

Result<JournaledStep> ParseStepRecord(const SubjectiveDatabase& db,
                                      const JsonValue& record) {
  JournaledStep step;
  for (const auto& [key, side] :
       {std::pair<const char*, Side>{"reviewers", Side::kReviewer},
        std::pair<const char*, Side>{"items", Side::kItem}}) {
    const JsonValue* v = record.Find(key);
    if (v == nullptr || !v->is_string()) {
      return Status::IoError(std::string("step record has no '") + key +
                             "' query");
    }
    if (v->str().empty()) continue;
    Result<Predicate> pred = ParsePredicateReadOnly(db.table(side), v->str());
    if (!pred.ok()) {
      return Status::IoError(std::string("journaled '") + key +
                             "' query no longer parses: " +
                             pred.status().message());
    }
    (side == Side::kReviewer ? step.selection.reviewer_pred
                             : step.selection.item_pred) =
        std::move(pred).value();
  }
  const JsonValue* digest = record.Find("digest");
  if (digest == nullptr || !digest->is_string() ||
      !HexToDigest(digest->str(), &step.digest)) {
    return Status::IoError("step record has no valid digest");
  }
  if (const JsonValue* v = record.Find("with_recommendations");
      v != nullptr && v->is_bool()) {
    step.with_recommendations = v->bool_value();
  }
  if (const JsonValue* v = record.Find("degraded");
      v != nullptr && v->is_bool()) {
    step.degraded = v->bool_value();
  }
  return step;
}

std::string SessionJournal::MirrorPath(const JournalConfig& config,
                                       const std::string& session_id) {
  return config.dir + "/" + session_id + kMirrorSuffix;
}

std::string SessionJournal::SegmentPath(const JournalConfig& config,
                                        const std::string& session_id,
                                        uint64_t seq) {
  std::string number = std::to_string(seq);
  if (number.size() < 6) number.insert(0, 6 - number.size(), '0');
  return config.dir + "/" + session_id + "." + number + kSegmentSuffix;
}

Result<std::vector<SessionJournalReplay>> ScanJournalDir(
    const JournalConfig& config) {
  std::error_code ec;
  fs::directory_iterator it(config.dir, ec);
  if (ec) {
    return Status::IoError("cannot read journal dir '" + config.dir +
                           "': " + ec.message());
  }
  // id -> (seq -> path); std::map on both levels for deterministic
  // recovery order regardless of directory enumeration order.
  std::map<std::string, std::map<uint64_t, std::string>> sessions;
  for (const fs::directory_entry& entry : it) {
    std::string id;
    uint64_t seq = 0;
    if (!ParseSegmentName(entry.path().filename().string(), &id, &seq)) {
      continue;
    }
    sessions[id][seq] = entry.path().string();
  }

  std::vector<SessionJournalReplay> out;
  out.reserve(sessions.size());
  for (const auto& [id, segments] : sessions) {
    SessionJournalReplay replay;
    replay.session_id = id;
    replay.last_seq = segments.rbegin()->first;

    // Segments must run 1..last_seq with no holes: a missing middle
    // segment means missing committed records, which is corruption, not
    // a tail to shrug off.
    uint64_t expected = 1;
    for (const auto& [seq, path] : segments) {
      // Discard justified: contiguity check only; paths are read below.
      (void)path;
      if (seq != expected) {
        replay.status = Status::IoError(
            "journal for session '" + id + "' is missing segment " +
            std::to_string(expected));
        break;
      }
      ++expected;
    }

    for (const auto& [seq, path] : segments) {
      if (!replay.status.ok()) break;
      FramedLogContents contents = ReadFramedLog(path);
      if (!contents.status.ok()) {
        replay.status = contents.status;
        break;
      }
      const bool final_segment = seq == replay.last_seq;
      if (contents.torn_tail && !final_segment) {
        replay.status = Status::IoError(
            "torn record inside non-final segment '" + path +
            "' (later segments hold committed records)");
        break;
      }
      if (contents.torn_tail) {
        replay.torn_tail = true;
        JournalMetrics::Get().torn_tails.Increment();
      }
      if (final_segment) replay.valid_bytes = contents.valid_bytes;
      for (const std::string& payload : contents.records) {
        Result<JsonValue> parsed = JsonValue::Parse(payload);
        if (!parsed.ok() || !parsed.value().is_object()) {
          replay.status = Status::IoError(
              "unparseable journal record in '" + path + "'");
          break;
        }
        const JsonValue* type = parsed.value().Find("type");
        if (type == nullptr || !type->is_string()) {
          replay.status = Status::IoError(
              "journal record without a type in '" + path + "'");
          break;
        }
        if (type->str() == "delete") replay.deleted = true;
        replay.records.push_back(std::move(parsed).value());
      }
    }
    out.push_back(std::move(replay));
  }
  return out;
}

SessionJournal::SessionJournal(JournalConfig config, std::string session_id)
    : config_(std::move(config)), session_id_(std::move(session_id)) {}

Result<std::unique_ptr<SessionJournal>> SessionJournal::Start(
    const JournalConfig& config, const std::string& session_id) {
  std::error_code ec;
  fs::create_directories(config.dir, ec);
  if (ec) {
    return Status::IoError("cannot create journal dir '" + config.dir +
                           "': " + ec.message());
  }
  Result<FramedLogWriter> writer =
      FramedLogWriter::Create(SegmentPath(config, session_id, 1));
  if (!writer.ok()) return writer.status();
  auto journal = std::make_unique<SessionJournal>(config, session_id);
  MutexLock lock(journal->mu_);
  journal->writer_ = std::move(writer).value();
  journal->seq_ = 1;
  return journal;
}

Result<std::unique_ptr<SessionJournal>> SessionJournal::Resume(
    const JournalConfig& config, const SessionJournalReplay& replay) {
  if (!replay.status.ok()) {
    return Status::FailedPrecondition(
        "refusing to resume a corrupt journal: " + replay.status.message());
  }
  Result<FramedLogWriter> writer = FramedLogWriter::OpenForAppend(
      SegmentPath(config, replay.session_id, replay.last_seq),
      replay.valid_bytes);
  if (!writer.ok()) return writer.status();
  auto journal = std::make_unique<SessionJournal>(config, replay.session_id);
  MutexLock lock(journal->mu_);
  journal->writer_ = std::move(writer).value();
  journal->seq_ = replay.last_seq;
  return journal;
}

Status SessionJournal::Append(const JsonValue& record) {
  if (failed()) {
    return Status::FailedPrecondition(
        "journal for session '" + session_id_ +
        "' already failed; session is read-only");
  }
  std::string payload = record.Dump();
  MutexLock lock(mu_);
  Status status = AppendLocked(payload);
  if (!status.ok()) {
    failed_.store(true, std::memory_order_release);
    JournalMetrics::Get().write_failures.Increment();
  }
  return status;
}

Status SessionJournal::AppendLocked(std::string_view payload) {
  SUBDEX_FAULT_POINT_STATUS("journal.append");
  if (writer_.size() > kFramedLogHeaderBytes &&
      writer_.size() + payload.size() + 8 > config_.segment_bytes) {
    Status rotated = RotateLocked();
    if (!rotated.ok()) return rotated;
  }
  Status appended = writer_.Append(payload);
  if (!appended.ok()) return appended;
  JournalMetrics::Get().appends.Increment();
  switch (config_.fsync) {
    case JournalFsync::kEveryRecord:
      return SyncLocked();
    case JournalFsync::kBatch:
      if (++unsynced_records_ >= config_.fsync_batch_records) {
        return SyncLocked();
      }
      return Status::Ok();
    case JournalFsync::kNever:
      return Status::Ok();
  }
  return Status::Ok();
}

Status SessionJournal::SyncLocked() {
  SUBDEX_FAULT_POINT_STATUS("journal.fsync");
  Status status = writer_.Sync();
  if (status.ok()) unsynced_records_ = 0;
  return status;
}

Status SessionJournal::RotateLocked() {
  SUBDEX_FAULT_POINT_STATUS("journal.rotate");
  // Flush the retiring segment before opening its successor: a record in
  // segment N+1 must never be durable while one before it in N is not.
  if (config_.fsync != JournalFsync::kNever && unsynced_records_ > 0) {
    Status synced = SyncLocked();
    if (!synced.ok()) return synced;
  }
  Result<FramedLogWriter> next =
      FramedLogWriter::Create(SegmentPath(config_, session_id_, seq_ + 1));
  if (!next.ok()) return next.status();
  writer_ = std::move(next).value();
  ++seq_;
  JournalMetrics::Get().rotations.Increment();
  return Status::Ok();
}

Status SessionJournal::Sync() {
  MutexLock lock(mu_);
  Status status = SyncLocked();
  if (!status.ok()) {
    failed_.store(true, std::memory_order_release);
    JournalMetrics::Get().write_failures.Increment();
  }
  return status;
}

Status SessionJournal::EraseFiles() {
  {
    MutexLock lock(mu_);
    writer_.Close();
  }
  // Closed writer => any later Append fails and latches read-only; the
  // files below are gone either way.
  return Erase(config_, session_id_);
}

Status SessionJournal::Erase(const JournalConfig& config,
                             const std::string& session_id) {
  std::error_code ec;
  fs::directory_iterator it(config.dir, ec);
  if (ec) {
    // A missing directory has nothing left to erase.
    return Status::Ok();
  }
  Status first_error = Status::Ok();
  for (const fs::directory_entry& entry : it) {
    std::string id;
    uint64_t seq = 0;
    if (!ParseSegmentName(entry.path().filename().string(), &id, &seq) ||
        id != session_id) {
      continue;
    }
    std::error_code remove_ec;
    fs::remove(entry.path(), remove_ec);
    if (remove_ec && first_error.ok()) {
      first_error = Status::IoError("cannot remove '" +
                                    entry.path().string() +
                                    "': " + remove_ec.message());
    }
  }
  std::error_code mirror_ec;
  fs::remove(MirrorPath(config, session_id), mirror_ec);
  if (mirror_ec && first_error.ok()) {
    first_error = Status::IoError("cannot remove session mirror: " +
                                  mirror_ec.message());
  }
  return first_error;
}

}  // namespace subdex
