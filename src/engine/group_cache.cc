#include "engine/group_cache.h"

#include "util/check.h"
#include "util/fault_point.h"
#include "util/metrics.h"

namespace subdex {

namespace {

struct CacheMetrics {
  Counter& hits;
  Counter& misses;
  Counter& coalesced;
  Counter& evictions;
  Counter& loaded_bytes;
  Gauge& entries;

  static CacheMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static CacheMetrics m{
        reg.GetCounter("subdex_group_cache_hits_total",
                       "Rating-group lookups served from the cache"),
        reg.GetCounter("subdex_group_cache_misses_total",
                       "Rating-group lookups that materialized (leader "
                       "scans)"),
        reg.GetCounter("subdex_group_cache_coalesced_total",
                       "Lookups that waited on an in-flight scan instead "
                       "of duplicating it"),
        reg.GetCounter("subdex_group_cache_evictions_total",
                       "LRU evictions"),
        reg.GetCounter("subdex_group_cache_loaded_bytes_total",
                       "Bytes of record ids materialized by cache-miss "
                       "scans"),
        reg.GetGauge("subdex_group_cache_entries",
                     "Cached rating groups currently resident"),
    };
    return m;
  }
};

}  // namespace

RatingGroupCache::RatingGroupCache(const SubjectiveDatabase* db,
                                   size_t capacity)
    : db_(db), capacity_(capacity) {
  SUBDEX_CHECK(db_ != nullptr && db_->finalized());
}

std::string RatingGroupCache::KeyOf(const GroupSelection& selection) {
  // Pieces are appended one at a time: GCC 12 reports a false -Wrestrict
  // overlap inside chains of std::string operator+ at -O3.
  std::string key;
  auto append = [&key](char side, const AttributeValue& av) {
    key += side;
    key += std::to_string(av.attribute);
    key += '=';
    key += std::to_string(av.code);
    key += ';';
  };
  for (const AttributeValue& av : selection.reviewer_pred.conjuncts()) {
    append('r', av);
  }
  for (const AttributeValue& av : selection.item_pred.conjuncts()) {
    append('i', av);
  }
  return key;
}

RatingGroup RatingGroupCache::Get(const GroupSelection& selection) {
  if (capacity_ == 0) {
    {
      MutexLock lock(mu_);
      ++stats_.misses;
    }
    CacheMetrics::Get().misses.Increment();
    SUBDEX_FAULT_POINT("group_cache.load");
    RatingGroup group = RatingGroup::Materialize(*db_, selection);
    CacheMetrics::Get().loaded_bytes.Increment(group.size() *
                                               sizeof(RecordId));
    return group;
  }
  std::string key = KeyOf(selection);
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // move to MRU position
      ++stats_.hits;
      CacheMetrics::Get().hits.Increment();
      return RatingGroup(db_, selection, it->second->second);
    }
    auto fit = inflight_.find(key);
    if (fit != inflight_.end()) {
      // Another thread is already materializing this key: coalesce onto
      // its result instead of duplicating the work.
      flight = fit->second;
      ++stats_.coalesced;
      CacheMetrics::Get().coalesced.Increment();
    } else {
      flight = std::make_shared<Flight>();
      inflight_.emplace(key, flight);
      leader = true;
      ++stats_.misses;
      CacheMetrics::Get().misses.Increment();
    }
  }

  if (!leader) {
    // The leader completes the flight even on failure, so this wait is
    // bounded by the leader's scan; a deadline here would only duplicate
    // the scan the coalescing exists to avoid.
    // lint: unbounded(wait ends when the leader's scan does, failure included)
    MutexLock lock(flight->mu);
    while (!flight->done) lock.WaitOnce(flight->cv);
    // The leader failed: its error is ours too — the whole point of
    // coalescing is that waiters observe exactly what one scan would have
    // produced, failure included.
    if (flight->error) std::rethrow_exception(flight->error);
    return RatingGroup(db_, selection, flight->records);
  }

  // Leader: materialize outside the cache lock — single-flight guarantees
  // exactly one scan per key, and other keys' lookups are never blocked.
  // On failure the flight must still complete (exception stored, waiters
  // woken) or coalesced callers would sleep forever.
  RatingGroup group = [&] {
    try {
      SUBDEX_FAULT_POINT("group_cache.load");
      return RatingGroup::Materialize(*db_, selection);
    } catch (...) {
      {
        MutexLock lock(mu_);
        inflight_.erase(key);
      }
      {
        MutexLock lock(flight->mu);
        flight->error = std::current_exception();
        flight->done = true;
      }
      flight->cv.notify_all();
      throw;
    }
  }();
  CacheMetrics::Get().loaded_bytes.Increment(group.size() * sizeof(RecordId));
  {
    MutexLock lock(mu_);
    inflight_.erase(key);
    if (index_.find(key) == index_.end()) {
      lru_.emplace_front(key, group.shared_records());
      index_[key] = lru_.begin();
      if (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
        CacheMetrics::Get().evictions.Increment();
      }
    }
    // LRU discipline: the index mirrors the list exactly, and eviction
    // keeps the cache within its configured capacity.
    SUBDEX_DCHECK_EQ(index_.size(), lru_.size());
    SUBDEX_DCHECK_LE(lru_.size(), capacity_);
    stats_.entries = lru_.size();
    CacheMetrics::Get().entries.Set(static_cast<int64_t>(lru_.size()));
  }
  {
    MutexLock lock(flight->mu);
    flight->records = group.shared_records();
    flight->done = true;
  }
  flight->cv.notify_all();
  return group;
}

RatingGroupCache::Stats RatingGroupCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void RatingGroupCache::Clear() {
  MutexLock lock(mu_);
  lru_.clear();
  index_.clear();
  stats_.entries = 0;
  CacheMetrics::Get().entries.Set(0);
}

}  // namespace subdex
