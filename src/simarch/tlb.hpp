// TLB simulator: fully associative LRU over virtual pages.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

namespace vebo::simarch {

class TlbSim {
 public:
  explicit TlbSim(std::size_t entries = 64, std::size_t page_bytes = 4096);

  /// Simulates one translation; returns true on hit.
  bool access(std::uint64_t address);

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::size_t entries_;
  int page_shift_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace vebo::simarch
