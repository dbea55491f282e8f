// Parallel filter-scan compaction (pbbslib's pack): keep the elements of
// an index space that satisfy a predicate, writing them contiguously in
// index order. Two passes — per-block match counts, an exclusive scan over
// the block counts, then each block writes its survivors at its scanned
// offset. This is the primitive that removes the serial O(n) "collect the
// next frontier" tail from the algorithms (PageRank-delta's rounds).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace vebo {

/// Returns map(i) for every i in [0, n) with valid(i), in ascending i
/// order. `valid` and `map` may be called multiple times per index and
/// must be safe to call concurrently on distinct indices.
template <typename T, typename Valid, typename Map>
std::vector<T> pack_map(std::size_t n, Valid&& valid, Map&& map,
                        const ForOptions& opts = {}) {
  std::vector<T> out;
  if (n == 0) return out;
  ThreadPool& pool = opts.pool ? *opts.pool : ThreadPool::global();
  const std::size_t nthreads = pool.num_threads();
  if (n <= opts.serial_cutoff || nthreads == 1) {
    for (std::size_t i = 0; i < n; ++i)
      if (valid(i)) out.push_back(map(i));
    return out;
  }
  const std::size_t nblocks = std::min(n, nthreads * 8);
  const std::size_t per = n / nblocks, extra = n % nblocks;
  auto block_range = [&](std::size_t b) {
    const std::size_t lo = b * per + std::min(b, extra);
    return std::pair(lo, lo + per + (b < extra ? 1 : 0));
  };
  ForOptions block_opts = opts;
  block_opts.schedule = Schedule::Dynamic;
  block_opts.grain = 1;
  block_opts.serial_cutoff = 1;
  std::vector<std::uint64_t> off(nblocks);
  parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        auto [lo, hi] = block_range(b);
        std::uint64_t c = 0;
        for (std::size_t i = lo; i < hi; ++i) c += valid(i) ? 1 : 0;
        off[b] = c;
      },
      block_opts);
  const std::uint64_t total =
      exclusive_scan(off.data(), off.data(), nblocks, opts);
  out.resize(total);
  parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        auto [lo, hi] = block_range(b);
        T* dst = out.data() + off[b];
        for (std::size_t i = lo; i < hi; ++i)
          if (valid(i)) *dst++ = map(i);
      },
      block_opts);
  return out;
}

}  // namespace vebo
