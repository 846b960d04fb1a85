#ifndef SUBDEX_ENGINE_GROUP_CACHE_H_
#define SUBDEX_ENGINE_GROUP_CACHE_H_

#include <condition_variable>
#include <exception>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "subjective/rating_group.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/status.h"

namespace subdex {

/// Thread-safe LRU cache of materialized rating groups, keyed by the joint
/// selection. The in-memory counterpart of the repeated-data-access
/// avoidance systems the paper builds on (in-memory caching/prefetching
/// [18], Data Canopy [57]). Hits come from candidate operations that lead
/// back toward previously evaluated selections — roll-ups, sideways
/// changes, and a user revisiting a region — so the benefit is modest for
/// a path that keeps moving into fresh territory (a few percent of
/// materializations) and grows for interactive sessions that hop around
/// explored areas. A miss costs one gather over the selection's rating
/// lists (`SubjectiveDatabase::MatchRecords`), not a scan of every record,
/// so on recommendation-following paths the cache saves little CPU while
/// its entries hold record lists in memory (EXPERIMENTS.md).
///
/// Groups are pure functions of the (immutable, finalized) database and
/// the selection, so cached entries never go stale. Capacity is bounded;
/// eviction is least-recently-used.
class RatingGroupCache {
 public:
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    /// Concurrent misses on a key already being materialized: the caller
    /// waited for the in-flight scan instead of duplicating it.
    size_t coalesced = 0;
    size_t evictions = 0;
    size_t entries = 0;

    SUBDEX_NODISCARD double HitRate() const {
      size_t total = hits + misses + coalesced;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// `capacity` = maximum number of cached groups; 0 disables caching
  /// (every call materializes).
  RatingGroupCache(const SubjectiveDatabase* db, size_t capacity);

  RatingGroupCache(const RatingGroupCache&) = delete;
  RatingGroupCache& operator=(const RatingGroupCache&) = delete;

  /// The rating group of `selection`, from cache or freshly materialized.
  RatingGroup Get(const GroupSelection& selection) SUBDEX_EXCLUDES(mu_);

  SUBDEX_NODISCARD Stats stats() const SUBDEX_EXCLUDES(mu_);
  SUBDEX_NODISCARD size_t capacity() const { return capacity_; }
  void Clear() SUBDEX_EXCLUDES(mu_);

 private:
  // Canonical cache key: conjuncts are kept sorted by Predicate, so the
  // rendered form is unique per selection.
  static std::string KeyOf(const GroupSelection& selection);

  // Single-flight rendezvous: the first miss on a key materializes while
  // later concurrent misses wait here for the result. A leader that fails
  // still completes the flight — `error` carries its exception to every
  // coalesced waiter (who rethrow), so no failure mode leaves waiters
  // parked on the condition variable forever.
  struct Flight {
    Mutex mu{"cache.flight", lock_rank::kGroupCacheFlight};
    std::condition_variable cv;
    bool done SUBDEX_GUARDED_BY(mu) = false;
    RatingGroup::SharedRecords records SUBDEX_GUARDED_BY(mu);
    std::exception_ptr error SUBDEX_GUARDED_BY(mu);
  };

  const SubjectiveDatabase* db_;
  size_t capacity_;

  mutable Mutex mu_{"cache.lru", lock_rank::kGroupCacheLru};
  // MRU-first list of (key, records); map points into the list. Records
  // are shared with every RatingGroup handed out, so a hit never copies.
  using Entry = std::pair<std::string, RatingGroup::SharedRecords>;
  std::list<Entry> lru_ SUBDEX_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      SUBDEX_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_
      SUBDEX_GUARDED_BY(mu_);
  Stats stats_ SUBDEX_GUARDED_BY(mu_);
};

}  // namespace subdex

#endif  // SUBDEX_ENGINE_GROUP_CACHE_H_
