#include "serve/result_cache.hpp"

namespace vebo::serve {

CacheKey CacheKey::make(std::string_view code,
                        const algo::QueryParams& validated_params) {
  CacheKey k;
  k.canon = algo::canonical_query_key(code, validated_params);
  k.hash = std::hash<std::string>{}(k.canon);
  return k;
}

const ResultCache::Value* ResultCache::find(const CacheKey& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // bump to MRU
  it->second.value.read = true;
  return &it->second.value;
}

void ResultCache::insert(const CacheKey& key, Value v) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second.value = std::move(v);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  if (!lru_.empty() && map_.size() >= capacity_) {
    map_.erase(*lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  const auto ins = map_.emplace(key, Entry{std::move(v), {}});
  lru_.push_front(&ins.first->first);
  ins.first->second.lru_pos = lru_.begin();
}

void ResultCache::clear() {
  map_.clear();
  lru_.clear();
}

std::vector<std::pair<CacheKey, ResultCache::Value>> ResultCache::drain() {
  std::vector<std::pair<CacheKey, Value>> out;
  out.reserve(map_.size());
  // Walk the recency list back-to-front: LRU first, MRU last.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    auto found = map_.find(**it);
    out.emplace_back(found->first, std::move(found->second.value));
  }
  clear();
  return out;
}

}  // namespace vebo::serve
