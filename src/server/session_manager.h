#ifndef SUBDEX_SERVER_SESSION_MANAGER_H_
#define SUBDEX_SERVER_SESSION_MANAGER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/sde_engine.h"
#include "server/session_journal.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace subdex {

/// One live exploration session of subdexd: a dedicated SdeEngine over a
/// registered dataset, plus the last step's result so recommendation
/// indexes in follow-up requests resolve against what the client was
/// actually shown.
///
/// Lifetime: owned by shared_ptr. The SessionManager's map holds one
/// reference; SessionLease holds another while a request runs, so a
/// concurrent DELETE (or TTL reap) removes the session from the map
/// without pulling the engine out from under an in-flight step.
struct ServerSession {
  std::string id;
  std::string dataset;
  std::shared_ptr<const SubjectiveDatabase> db;
  /// The write-ahead journal, the session's one durable record (null
  /// when the server runs without --journal-dir).
  std::unique_ptr<SessionJournal> journal;
  std::unique_ptr<SdeEngine> engine;
  std::chrono::milliseconds ttl{0};

  /// Last-activity instant, as steady-clock milliseconds (atomic so leases
  /// touch it without a lock).
  std::atomic<int64_t> last_used_ms{0};
  /// Requests currently executing against this session; a reaper never
  /// expires a busy session.
  std::atomic<int> in_flight{0};
  std::atomic<uint64_t> steps_executed{0};

  /// Latched when a journal write fails (or a recovered journal cannot
  /// resume appending): durability is gone, so mutating requests answer
  /// 503 + Retry-After until the session is deleted or the server
  /// restarts against a healthy disk.
  std::atomic<bool> read_only{false};
  /// True when this session was rebuilt from its journal at startup.
  bool recovered = false;

  /// Serializes mutations (step/reset) on one session. The journal is a
  /// totally ordered record log: journal order must equal engine-commit
  /// order or replay would re-execute steps in an order that cannot
  /// reproduce the digest chain. Held across ExecuteStep + append;
  /// ranked above the shard lock, below everything the step acquires.
  Mutex order_mu{"session.order", lock_rank::kSessionOrder};

  Mutex mu{"session.last_step", lock_rank::kSessionLastStep};
  /// The most recent step; mutations serialize on order_mu, so readers
  /// under mu see the last committed one.
  StepResult last_step SUBDEX_GUARDED_BY(mu);
  bool has_last_step SUBDEX_GUARDED_BY(mu) = false;
  /// Digest of every committed step since the last reset — the chain GET
  /// /sessions/{id} reports and crash recovery verifies against.
  std::vector<uint64_t> digests SUBDEX_GUARDED_BY(mu);

  /// Unlinks the session's on-disk artifacts (SessionJournal::EraseFiles);
  /// no-op without a journal. Called when the session ends for
  /// good (explicit DELETE, TTL expiry) — an ended session must not
  /// resurrect on the next boot.
  void DiscardDurability();

  /// Steady-clock "now" in the unit last_used_ms uses.
  static int64_t NowMs();
};

/// RAII in-flight marker: holds the session alive and keeps the TTL
/// reaper off it for the duration of a request. Touches last_used_ms on
/// both acquire and release, so the idle clock starts after the step
/// finishes, not when it starts.
class SessionLease {
 public:
  SessionLease() = default;
  explicit SessionLease(std::shared_ptr<ServerSession> session)
      : session_(std::move(session)) {
    if (session_ != nullptr) {
      session_->in_flight.fetch_add(1, std::memory_order_acq_rel);
      session_->last_used_ms.store(ServerSession::NowMs(),
                                   std::memory_order_relaxed);
    }
  }
  ~SessionLease() { Release(); }

  SessionLease(SessionLease&& other) noexcept
      : session_(std::move(other.session_)) {
    other.session_.reset();
  }
  SessionLease& operator=(SessionLease&& other) noexcept {
    if (this != &other) {
      Release();
      session_ = std::move(other.session_);
      other.session_.reset();
    }
    return *this;
  }
  SessionLease(const SessionLease&) = delete;
  SessionLease& operator=(const SessionLease&) = delete;

  explicit operator bool() const { return session_ != nullptr; }
  ServerSession* operator->() const { return session_.get(); }
  SUBDEX_NODISCARD ServerSession* get() const { return session_.get(); }

 private:
  void Release() {
    if (session_ != nullptr) {
      session_->last_used_ms.store(ServerSession::NowMs(),
                                   std::memory_order_relaxed);
      session_->in_flight.fetch_sub(1, std::memory_order_acq_rel);
      session_.reset();
    }
  }

  std::shared_ptr<ServerSession> session_;
};

/// Concurrent session table: id -> ServerSession under sharded locks (the
/// 64-session storm must not serialize every request on one mutex), plus
/// a background reaper that expires sessions idle past their TTL — an
/// abandoned browser tab must not pin an engine (and its caches) forever.
class SessionManager {
 public:
  struct Options {
    /// Hard cap on concurrent sessions; Create beyond it fails with
    /// kFailedPrecondition (the server answers 429).
    size_t max_sessions = 256;
    std::chrono::milliseconds default_ttl{5 * 60 * 1000};
    std::chrono::milliseconds max_ttl{60 * 60 * 1000};
    std::chrono::milliseconds reap_interval{1000};
  };

  explicit SessionManager(Options options);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Starts the TTL reaper thread (idempotent).
  void Start();
  /// Stops the reaper. Sessions survive Stop (shutdown order: HTTP first,
  /// then the manager goes down with the process).
  void Stop();

  /// Pre-publication hook: runs on the fully built session *before* it
  /// becomes visible to Acquire, so attachments (the journal) are in
  /// place without a race window. A non-OK return aborts the create.
  using SessionSetup = std::function<Status(ServerSession&)>;

  /// Creates a session over `db` with its own engine. `ttl_ms` <= 0 picks
  /// the default TTL; larger values clamp to max_ttl.
  SUBDEX_MUST_USE_RESULT Result<std::shared_ptr<ServerSession>> Create(
      const std::string& dataset,
      std::shared_ptr<const SubjectiveDatabase> db, const EngineConfig& config,
      double ttl_ms, const SessionSetup& setup = nullptr);

  /// Re-inserts a session under its journaled id during crash recovery
  /// (before the HTTP front end starts serving). Advances the id counter
  /// past the recovered serial so new sessions never collide with
  /// recovered ones; fails on a duplicate id or an exhausted session cap.
  SUBDEX_MUST_USE_RESULT Result<std::shared_ptr<ServerSession>> Restore(
      const std::string& id, const std::string& dataset,
      std::shared_ptr<const SubjectiveDatabase> db, const EngineConfig& config,
      double ttl_ms);

  /// In-flight lease on a live session; an empty lease when the id is
  /// unknown or the session sat idle past its TTL (lazily reaped here, so
  /// expiry is exact even between reaper sweeps).
  SUBDEX_NODISCARD SessionLease Acquire(const std::string& id);

  /// Removes a session; false when the id is unknown. In-flight requests
  /// holding a lease finish against the detached session.
  bool Remove(const std::string& id);

  /// One reaper sweep, synchronously; returns the number of sessions
  /// expired. The background thread calls this on its cadence; tests call
  /// it directly for determinism.
  size_t ReapExpired();

  SUBDEX_NODISCARD size_t ActiveCount() const;

 private:
  static constexpr size_t kNumShards = 8;
  struct Shard {
    // All 8 shard locks share one name: the detector's same-name-nesting
    // rule then proves no code path ever holds two shards at once.
    mutable Mutex mu{"session.shard", lock_rank::kSessionShard};
    std::unordered_map<std::string, std::shared_ptr<ServerSession>> sessions
        SUBDEX_GUARDED_BY(mu);
  };

  SUBDEX_NODISCARD size_t ShardIndexOf(const std::string& id) const {
    return std::hash<std::string>{}(id) % kNumShards;
  }
  SUBDEX_NODISCARD bool Expired(const ServerSession& session,
                                int64_t now_ms) const;
  void ReaperLoop();

  Options options_;
  std::array<Shard, kNumShards> shards_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<size_t> active_{0};

  std::thread reaper_;
  Mutex reaper_mu_{"session.reaper", lock_rank::kSessionReaper};
  std::condition_variable reaper_cv_;
  bool reaper_stop_ SUBDEX_GUARDED_BY(reaper_mu_) = false;
  bool reaper_running_ = false;
};

}  // namespace subdex

#endif  // SUBDEX_SERVER_SESSION_MANAGER_H_
