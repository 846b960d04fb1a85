#ifndef SUBDEX_SERVER_SESSION_JOURNAL_H_
#define SUBDEX_SERVER_SESSION_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/config.h"
#include "server/json.h"
#include "storage/framed_log.h"
#include "subjective/rating_group.h"
#include "subjective/subjective_db.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace subdex {

/// When journal appends reach the platter (DESIGN.md §13 discusses the
/// trade-offs).
enum class JournalFsync {
  /// Never fdatasync: the OS flushes on its own schedule. A process crash
  /// (SIGKILL) loses nothing — the page cache survives the process — but
  /// a power loss can lose recent steps.
  kNever,
  /// fdatasync every `fsync_batch_records` appends (default): bounded
  /// power-loss exposure at a fraction of the per-record sync cost.
  kBatch,
  /// fdatasync after every record: an acked step is durable, full stop.
  kEveryRecord,
};

SUBDEX_NODISCARD const char* JournalFsyncName(JournalFsync policy);
SUBDEX_NODISCARD bool ParseJournalFsync(std::string_view text,
                                        JournalFsync* out);

struct JournalConfig {
  /// Directory holding every session's segments; empty disables
  /// journaling entirely (PR 6 behavior: sessions die with the process).
  std::string dir;
  JournalFsync fsync = JournalFsync::kBatch;
  size_t fsync_batch_records = 8;
  /// Segment rotation threshold. Small segments bound the blast radius of
  /// a corrupt file and keep any one replay read modest.
  size_t segment_bytes = 4u << 20;

  SUBDEX_NODISCARD bool enabled() const { return !dir.empty(); }
};

/// uint64 <-> 16-hex-digit string. Digests cross the JSON boundary as
/// strings: JSON numbers are doubles and cannot carry 64 bits exactly.
SUBDEX_NODISCARD std::string DigestToHex(uint64_t digest);
SUBDEX_NODISCARD bool HexToDigest(std::string_view hex, uint64_t* out);

/// Journal record payloads, one JSON object per record:
///   {"type":"create","v":1,"dataset":...,"ttl_ms":...,"config":{...}}
///   {"type":"step","reviewers":q,"items":q,"with_recommendations":b,
///    "degraded":b,"digest":"<hex16>"}
///   {"type":"reset"}   {"type":"delete"}
/// Selections are journaled as canonical query strings (the replayable
/// form PredicateToQuery emits), not as raw predicate structures.
SUBDEX_NODISCARD JsonValue MakeCreateRecord(const std::string& dataset,
                                            double ttl_ms,
                                            const EngineConfig& config);
SUBDEX_NODISCARD JsonValue MakeStepRecord(const std::string& reviewers,
                                          const std::string& items,
                                          bool with_recommendations,
                                          bool degraded, uint64_t digest);
SUBDEX_NODISCARD JsonValue MakeResetRecord();
SUBDEX_NODISCARD JsonValue MakeDeleteRecord();

/// A `step` record decoded against the session's database.
struct JournaledStep {
  GroupSelection selection;
  bool with_recommendations = true;
  bool degraded = false;
  uint64_t digest = 0;
};

/// Decodes a MakeStepRecord payload. Queries parse read-only: a dataset's
/// dictionaries are shared by every session, so reading a journal never
/// interns a value. A missing query or digest, or a query that no longer
/// parses, is an IoError (the journal does not match the data); absent
/// flags keep their defaults.
SUBDEX_MUST_USE_RESULT Result<JournaledStep> ParseStepRecord(
    const SubjectiveDatabase& db, const JsonValue& record);

/// Everything recovered from one session's on-disk journal.
struct SessionJournalReplay {
  std::string session_id;
  /// Parsed record payloads, oldest first, across all segments.
  std::vector<JsonValue> records;
  /// A `delete` record was found: the session ended; recovery finishes the
  /// unlink instead of resurrecting it.
  bool deleted = false;
  /// The final segment ended in a half-written record (crash mid-append);
  /// it was dropped from `records` and Resume() will truncate it away.
  bool torn_tail = false;
  /// Highest segment sequence number on disk, and the good-prefix length
  /// of that segment — what Resume() needs to continue appending.
  uint64_t last_seq = 1;
  uint64_t valid_bytes = 0;
  /// Non-OK on real corruption (bad magic, mid-file checksum failure, a
  /// missing segment in the sequence, unparseable record). The server
  /// flags such a session divergent rather than serving a guess.
  Status status = Status::Ok();
};

/// Scans `config.dir` and reads every session journal found there.
/// Per-session corruption lands in that replay's `status`, never fails
/// the scan; only an unreadable directory returns an error.
SUBDEX_MUST_USE_RESULT Result<std::vector<SessionJournalReplay>>
ScanJournalDir(const JournalConfig& config);

/// The durable write-ahead log of one session. Appends are serialized
/// internally; the server journals a mutation *before* acking it, so an
/// acknowledged step survives a crash (modulo the fsync policy).
///
/// Failure model: the first failed append/rotate/fsync (real ENOSPC/EIO
/// or an injected `journal.{append,fsync,rotate}` fault) latches
/// `failed()`. The journal then refuses further appends and the server
/// marks the session read-only — continuing to journal after a torn
/// write would put valid records behind the tear, which the reader must
/// treat as corruption.
class SessionJournal {
 public:
  /// Fresh journal for a brand-new session: creates segment 1.
  SUBDEX_MUST_USE_RESULT static Result<std::unique_ptr<SessionJournal>>
  Start(const JournalConfig& config, const std::string& session_id);

  /// Continues a recovered session's journal: truncates the torn tail the
  /// scan reported (if any) and appends to the last segment.
  SUBDEX_MUST_USE_RESULT static Result<std::unique_ptr<SessionJournal>>
  Resume(const JournalConfig& config, const SessionJournalReplay& replay);

  /// Appends one record (and syncs, per policy). Once failed, always
  /// fails with kFailedPrecondition without touching the disk again.
  SUBDEX_MUST_USE_RESULT Status Append(const JsonValue& record)
      SUBDEX_EXCLUDES(mu_);

  /// Forces an fdatasync regardless of policy (shutdown, tests).
  SUBDEX_MUST_USE_RESULT Status Sync() SUBDEX_EXCLUDES(mu_);

  SUBDEX_NODISCARD bool failed() const {
    return failed_.load(std::memory_order_acquire);
  }
  SUBDEX_NODISCARD const std::string& session_id() const {
    return session_id_;
  }

  /// Closes the writer and unlinks every on-disk artifact of this
  /// session (segments, and the text mirror older servers wrote). Used by
  /// explicit DELETE and TTL reap — an ended session must not resurrect
  /// on the next boot.
  SUBDEX_MUST_USE_RESULT Status EraseFiles() SUBDEX_EXCLUDES(mu_);

  /// Same, by id, for sessions without a live journal object (recovery
  /// finishing a crashed DELETE).
  SUBDEX_MUST_USE_RESULT static Status Erase(const JournalConfig& config,
                                             const std::string& session_id);

  /// Path of the `<id>.log` text mirror that older servers wrote beside
  /// the journal. Nothing writes it now; Erase removes it so that journal
  /// directories written by those servers are cleaned up too.
  SUBDEX_NODISCARD static std::string MirrorPath(
      const JournalConfig& config, const std::string& session_id);
  /// Path of segment `seq` for `session_id`.
  SUBDEX_NODISCARD static std::string SegmentPath(
      const JournalConfig& config, const std::string& session_id,
      uint64_t seq);

  /// Public only for the factories' make_unique; use Start/Resume.
  SessionJournal(JournalConfig config, std::string session_id);

 private:
  SUBDEX_MUST_USE_RESULT Status AppendLocked(std::string_view payload)
      SUBDEX_REQUIRES(mu_);
  SUBDEX_MUST_USE_RESULT Status SyncLocked() SUBDEX_REQUIRES(mu_);
  SUBDEX_MUST_USE_RESULT Status RotateLocked() SUBDEX_REQUIRES(mu_);

  const JournalConfig config_;
  const std::string session_id_;
  std::atomic<bool> failed_{false};

  mutable Mutex mu_{"session.journal", lock_rank::kSessionJournal};
  FramedLogWriter writer_ SUBDEX_GUARDED_BY(mu_);
  uint64_t seq_ SUBDEX_GUARDED_BY(mu_) = 1;
  size_t unsynced_records_ SUBDEX_GUARDED_BY(mu_) = 0;
};

}  // namespace subdex

#endif  // SUBDEX_SERVER_SESSION_JOURNAL_H_
