// The GraphService result cache: canonical keys + LRU eviction.
//
// CacheKey wraps algo::canonical_query_key over (code, *validated*
// params), so two submissions that run the same computation — whatever
// their param spelling, ordering, or reliance on defaults — share one
// entry, and two different computations can never collide (the encoding
// is injective on normalized params). The hash is computed once at key
// construction and is the hash the index uses: lookups never rehash the
// canonical string (equality only compares strings on a bucket
// collision).
//
// ResultCache is a plain LRU map from CacheKey to (checksum, translated
// payload). It is deliberately NOT thread-safe and NOT epoch-aware: the
// service serializes access under its cache mutex and wipes the cache
// wholesale on epoch changes (publish, or lazily on observing a newer
// version). The thread-safety analysis sees this contract from the
// OWNER's side: GraphService declares its instance
// `ResultCache cache_ GUARDED_BY(cache_mutex_)` (annotated_mutex.hpp),
// so every unlocked touch is a compile error there — this class itself
// carries no lock and no capability on purpose. Within an epoch,
// overflow evicts the least-recently-used entry — never the whole cache —
// and counts it separately from wipes. A capacity of 0 still keeps one
// entry (every insert evicts the previous one); GraphService reads
// cache_capacity == 0 as "serve uncached" and never touches its cache.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algorithms/query.hpp"

namespace vebo::serve {

/// Canonical, pre-hashed cache key for one query's semantics.
struct CacheKey {
  std::string canon;
  std::size_t hash = 0;

  CacheKey() = default;
  /// `params` must already be schema-validated (default-filled and
  /// type-normalized); raw client params would key on spelling.
  static CacheKey make(std::string_view code,
                       const algo::QueryParams& validated_params);

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.canon == b.canon;
  }
};

/// Hasher reading the precomputed hash (see CacheKey::make).
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const { return k.hash; }
};

class ResultCache {
 public:
  struct Value {
    double checksum = 0;
    /// Payload in original vertex ids (translated before insertion);
    /// shared so concurrent hits hand out the same immutable object.
    std::shared_ptr<const algo::QueryPayload> payload;
    /// The query's identity, kept so refresh-on-publish can recompute
    /// the entry without reverse-engineering the canonical key: the
    /// algorithm code and the schema-validated params in ORIGINAL vertex
    /// ids (the client-visible form — sources get re-translated against
    /// whatever permutation the refreshing epoch publishes).
    std::string code;
    algo::QueryParams params;
    /// The read mark that decides refresh-on-publish: set when a
    /// client's miss inserts the entry and when a hit finds it, clear on
    /// an entry a refresh reinserted. A publish refreshes only marked
    /// entries and drops the rest.
    bool read = false;
  };

  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// nullptr on miss; a hit bumps the entry to most-recently-used and
  /// sets its read mark. The pointer is valid until the next non-const
  /// call.
  const Value* find(const CacheKey& key);

  /// Membership without a recency bump or a read mark.
  bool contains(const CacheKey& key) const { return map_.count(key) != 0; }

  /// Inserts (or refreshes) an entry, evicting the LRU entry when full.
  void insert(const CacheKey& key, Value v);

  /// Wipe (epoch invalidation). Does not count as eviction.
  void clear();

  std::size_t size() const { return map_.size(); }
  std::uint64_t evictions() const { return evictions_; }

  /// Moves every entry out in LRU -> MRU order (so reinserting in
  /// sequence reproduces the recency) and leaves the cache empty.
  /// Refresh-on-publish drains under the owner's lock, recomputes
  /// outside it, and reinserts.
  std::vector<std::pair<CacheKey, Value>> drain();

 private:
  /// MRU-first recency list; entries point at their map key. Pointers to
  /// unordered_map elements are stable across rehash, so the back-
  /// pointers survive growth.
  using LruList = std::list<const CacheKey*>;
  struct Entry {
    Value value;
    LruList::iterator lru_pos;
  };

  std::size_t capacity_;
  LruList lru_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> map_;
  std::uint64_t evictions_ = 0;
};

}  // namespace vebo::serve
