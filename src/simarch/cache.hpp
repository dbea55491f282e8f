// Set-associative LRU cache simulator. Stands in for the hardware LLC
// counters of the paper's evaluation (Figure 4, Table V): reordering
// changes the access pattern of the same kernels, and the simulator
// exposes the resulting miss-rate changes.
#pragma once

#include <cstdint>
#include <vector>

namespace vebo::simarch {

class CacheSim {
 public:
  /// size_bytes/line_bytes must be a multiple of `ways`.
  CacheSim(std::size_t size_bytes, std::size_t line_bytes, std::size_t ways);

  /// Simulates one access; returns true on hit.
  bool access(std::uint64_t address);

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::size_t sets_;
  std::size_t ways_;
  int line_shift_;
  /// tags_[set*ways + way]; lru_[same index] = last-use stamp.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> lru_;
  std::vector<bool> valid_;
  std::uint64_t clock_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace vebo::simarch
