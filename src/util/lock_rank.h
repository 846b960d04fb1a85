#ifndef SUBDEX_UTIL_LOCK_RANK_H_
#define SUBDEX_UTIL_LOCK_RANK_H_

// The process-wide lock hierarchy, in one place (DESIGN.md §12 renders the
// same table with owners and guarded state). Ranks strictly increase from
// outer to inner: while a thread holds a lock of rank R it may only acquire
// locks of rank > R. The deadlock detector (util/lock_graph.h, armed with
// -DSUBDEX_DEADLOCK_DETECTOR=ON) enforces this at every acquisition and
// additionally runs cycle detection over the observed acquired-after graph,
// so an inversion is caught the first time it executes — not the first time
// it deadlocks under load.
//
// Rank 0 is reserved for unranked mutexes (test-local locks); the detector
// skips the rank comparison for them and relies on the graph alone.
//
// Adding a lock: pick the rank band that matches where it nests, leave gaps
// for future locks, give it a unique rank, and document the edge set in
// DESIGN.md §12.
namespace subdex::lock_rank {

// -- Server front end (outermost: held around queue/watch bookkeeping
//    only, never across a handler).
inline constexpr int kSessionReaper = 10;   // SessionManager::reaper_mu_
inline constexpr int kHttpQueue = 20;       // HttpServer::mu_
inline constexpr int kHttpWatch = 22;       // HttpServer::watch_mu_
inline constexpr int kSessionShard = 30;    // SessionManager::Shard::mu
inline constexpr int kSessionOrder = 33;    // ServerSession::order_mu
inline constexpr int kSessionLastStep = 35; // ServerSession::mu
inline constexpr int kSessionJournal = 37;  // SessionJournal::mu_

// -- Engine (held across a step's history-dependent phases, which fan out
//    into the cache and the pool below).
inline constexpr int kEngineHistory = 40;   // SdeEngine::mu_

// -- Shared engine substrate.
inline constexpr int kGroupCacheLru = 50;     // RatingGroupCache::mu_
inline constexpr int kGroupCacheFlight = 52;  // RatingGroupCache::Flight::mu
inline constexpr int kPoolQueue = 60;         // ThreadPool::mu_
inline constexpr int kPoolBatch = 62;         // thread_pool.cc Batch::mu

// -- Leaf registries (innermost: acquired under any of the above, never
//    acquire anything themselves).
inline constexpr int kFaultRegistry = 80;    // FaultInjector::mu_
inline constexpr int kMetricsRegistry = 90;  // MetricsRegistry::mu_

}  // namespace subdex::lock_rank

#endif  // SUBDEX_UTIL_LOCK_RANK_H_
