#include "server/session_manager.h"

#include <algorithm>
#include <vector>

#include "util/metrics.h"

namespace subdex {

namespace {

struct SessionMetrics {
  Counter& created;
  Counter& removed;
  Counter& reaped;
  Gauge& active;

  static SessionMetrics& Get() {
    static SessionMetrics m{
        MetricsRegistry::Global().GetCounter(
            "subdex_server_sessions_created_total",
            "Exploration sessions created"),
        MetricsRegistry::Global().GetCounter(
            "subdex_server_sessions_removed_total",
            "Sessions removed by explicit DELETE"),
        MetricsRegistry::Global().GetCounter(
            "subdex_server_sessions_reaped_total",
            "Sessions expired by the TTL reaper"),
        MetricsRegistry::Global().GetGauge("subdex_server_sessions_active",
                                           "Live exploration sessions"),
    };
    return m;
  }
};

// SplitMix64 finalizer: turns the sequential session counter into an
// opaque-looking (but deterministic) id suffix, so ids don't read as an
// invitation to guess neighboring sessions while tests stay reproducible.
uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string HexSuffix(uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace

void ServerSession::DiscardDurability() {
  if (journal == nullptr) return;
  // Discard justified: the session is already gone; a failed unlink only
  // means the next boot replays a deleted session's journal and finishes
  // the erase then.
  (void)journal->EraseFiles();
}

int64_t ServerSession::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SessionManager::SessionManager(Options options)
    : options_(std::move(options)) {}

SessionManager::~SessionManager() { Stop(); }

void SessionManager::Start() {
  if (reaper_running_) return;
  {
    MutexLock lock(reaper_mu_);
    reaper_stop_ = false;
  }
  reaper_ = std::thread([this] { ReaperLoop(); });
  reaper_running_ = true;
}

void SessionManager::Stop() {
  if (!reaper_running_) return;
  {
    MutexLock lock(reaper_mu_);
    reaper_stop_ = true;
  }
  reaper_cv_.notify_all();
  reaper_.join();
  reaper_running_ = false;
}

namespace {

std::chrono::milliseconds ClampTtl(double ttl_ms,
                                   const SessionManager::Options& options) {
  std::chrono::milliseconds ttl =
      ttl_ms <= 0
          ? options.default_ttl
          : std::chrono::milliseconds(static_cast<int64_t>(ttl_ms));
  return std::max(std::chrono::milliseconds(1),
                  std::min(ttl, options.max_ttl));
}

}  // namespace

Result<std::shared_ptr<ServerSession>> SessionManager::Create(
    const std::string& dataset, std::shared_ptr<const SubjectiveDatabase> db,
    const EngineConfig& config, double ttl_ms, const SessionSetup& setup) {
  if (db == nullptr || !db->finalized()) {
    return Status::InvalidArgument("dataset is not finalized");
  }
  // Admission control at the session level: the cap bounds the number of
  // live engines (each owns caches and possibly a pool). The check-then-
  // increment is racy only in the benign direction of a brief overshoot
  // by at most the number of concurrent creates.
  if (active_.load(std::memory_order_relaxed) >= options_.max_sessions) {
    return Status::FailedPrecondition(
        "session capacity reached (" +
        std::to_string(options_.max_sessions) + "); retry later");
  }

  uint64_t serial = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto session = std::make_shared<ServerSession>();
  // Built in a local and appended piece by piece: GCC 12 reports a false
  // -Wrestrict overlap for an operator+ chain here at -O3.
  std::string id = "s";
  id += std::to_string(serial);
  id += '-';
  id += HexSuffix(MixId(serial));
  session->id = std::move(id);
  session->dataset = dataset;
  session->db = std::move(db);
  session->engine = std::make_unique<SdeEngine>(session->db.get(), config);
  session->ttl = ClampTtl(ttl_ms, options_);
  session->last_used_ms.store(ServerSession::NowMs(),
                              std::memory_order_relaxed);
  if (setup != nullptr) {
    // Attachments happen before publication: no request thread can see a
    // session whose journal pointer is still being written.
    Status status = setup(*session);
    if (!status.ok()) return status;
  }

  Shard& shard = shards_[ShardIndexOf(session->id)];
  {
    MutexLock lock(shard.mu);
    shard.sessions.emplace(session->id, session);
  }
  size_t active = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  SessionMetrics::Get().created.Increment();
  SessionMetrics::Get().active.Set(static_cast<int64_t>(active));
  return session;
}

Result<std::shared_ptr<ServerSession>> SessionManager::Restore(
    const std::string& id, const std::string& dataset,
    std::shared_ptr<const SubjectiveDatabase> db, const EngineConfig& config,
    double ttl_ms) {
  if (db == nullptr || !db->finalized()) {
    return Status::InvalidArgument("dataset is not finalized");
  }
  if (active_.load(std::memory_order_relaxed) >= options_.max_sessions) {
    return Status::FailedPrecondition(
        "session capacity reached while recovering '" + id + "'");
  }
  // Ids are "s<serial>-<hex>"; push the counter past the recovered serial
  // so post-recovery creates never mint a colliding id. fetch-max via CAS
  // (recovery is single-threaded, but the counter itself is shared).
  if (id.size() > 1 && id[0] == 's') {
    uint64_t serial = 0;
    bool numeric = false;
    for (size_t i = 1; i < id.size() && id[i] != '-'; ++i) {
      if (id[i] < '0' || id[i] > '9') {
        numeric = false;
        break;
      }
      serial = serial * 10 + static_cast<uint64_t>(id[i] - '0');
      numeric = true;
    }
    if (numeric) {
      uint64_t current = next_id_.load(std::memory_order_relaxed);
      while (current < serial &&
             !next_id_.compare_exchange_weak(current, serial,
                                             std::memory_order_relaxed)) {
      }
    }
  }

  auto session = std::make_shared<ServerSession>();
  session->id = id;
  session->dataset = dataset;
  session->db = std::move(db);
  session->engine = std::make_unique<SdeEngine>(session->db.get(), config);
  session->ttl = ClampTtl(ttl_ms, options_);
  session->recovered = true;
  session->last_used_ms.store(ServerSession::NowMs(),
                              std::memory_order_relaxed);

  Shard& shard = shards_[ShardIndexOf(session->id)];
  {
    MutexLock lock(shard.mu);
    if (!shard.sessions.emplace(session->id, session).second) {
      return Status::InvalidArgument("session '" + id +
                                     "' already exists; duplicate journal?");
    }
  }
  size_t active = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  SessionMetrics::Get().active.Set(static_cast<int64_t>(active));
  return session;
}

bool SessionManager::Expired(const ServerSession& session,
                             int64_t now_ms) const {
  if (session.in_flight.load(std::memory_order_acquire) > 0) return false;
  int64_t idle =
      now_ms - session.last_used_ms.load(std::memory_order_relaxed);
  return idle > session.ttl.count();
}

SessionLease SessionManager::Acquire(const std::string& id) {
  Shard& shard = shards_[ShardIndexOf(id)];
  std::shared_ptr<ServerSession> session;
  bool expired = false;
  {
    MutexLock lock(shard.mu);
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) return SessionLease();
    if (Expired(*it->second, ServerSession::NowMs())) {
      // Lazy expiry: precise TTL semantics even between reaper sweeps.
      session = std::move(it->second);
      shard.sessions.erase(it);
      expired = true;
    } else {
      session = it->second;
    }
  }
  if (expired) {
    size_t active = active_.fetch_sub(1, std::memory_order_relaxed) - 1;
    SessionMetrics::Get().reaped.Increment();
    SessionMetrics::Get().active.Set(static_cast<int64_t>(active));
    // Outside the shard lock: unlinking journal files is disk I/O.
    session->DiscardDurability();
    return SessionLease();
  }
  return SessionLease(std::move(session));
}

bool SessionManager::Remove(const std::string& id) {
  Shard& shard = shards_[ShardIndexOf(id)];
  {
    MutexLock lock(shard.mu);
    if (shard.sessions.erase(id) == 0) return false;
  }
  size_t active = active_.fetch_sub(1, std::memory_order_relaxed) - 1;
  SessionMetrics::Get().removed.Increment();
  SessionMetrics::Get().active.Set(static_cast<int64_t>(active));
  return true;
}

size_t SessionManager::ReapExpired() {
  const int64_t now = ServerSession::NowMs();
  size_t reaped = 0;
  for (Shard& shard : shards_) {
    // Collect victims under the shard lock, destroy engines outside it:
    // an engine teardown (pool join) must not block Acquire/Create on the
    // same shard.
    std::vector<std::shared_ptr<ServerSession>> victims;
    {
      MutexLock lock(shard.mu);
      for (auto it = shard.sessions.begin(); it != shard.sessions.end();) {
        if (Expired(*it->second, now)) {
          victims.push_back(std::move(it->second));
          it = shard.sessions.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const std::shared_ptr<ServerSession>& victim : victims) {
      victim->DiscardDurability();
    }
    reaped += victims.size();
  }
  if (reaped > 0) {
    size_t active =
        active_.fetch_sub(reaped, std::memory_order_relaxed) - reaped;
    SessionMetrics::Get().reaped.Increment(reaped);
    SessionMetrics::Get().active.Set(static_cast<int64_t>(active));
  }
  return reaped;
}

size_t SessionManager::ActiveCount() const {
  return active_.load(std::memory_order_relaxed);
}

void SessionManager::ReaperLoop() {
  const auto interval = std::chrono::milliseconds(
      std::max<int64_t>(1, options_.reap_interval.count()));
  for (;;) {
    {
      MutexLock lock(reaper_mu_);
      // Discard justified: timeout tick and stop notify both re-check
      // reaper_stop_; the sweep below runs on either wakeup.
      if (!reaper_stop_) (void)lock.WaitOnceFor(reaper_cv_, interval);
      if (reaper_stop_) return;
    }
    // reaper_mu_ is released before the sweep: "session.shard" is never
    // acquired under "session.reaper", keeping the two locks unordered in
    // the hierarchy (pinned by SessionManagerLockDiscipline in
    // server_test.cc, enforced by the armed-detector CI stage).
    // Discard justified: the sweep's count feeds metrics inside
    // ReapExpired; the loop itself has no use for it.
    (void)ReapExpired();
  }
}

}  // namespace subdex
