// Dynamic bitsets: a plain one and one with atomic set semantics.
//
// The Ligra-style dense frontier representation is a bitset over vertices;
// the atomic variant is what the pull-direction edgemap writes into from
// multiple threads. Both expose their 64-bit word storage so frontier
// conversions can run word-parallel instead of bit-at-a-time, and the
// atomic variant can release its word array so a DynamicBitset adopts the
// storage without copying (VertexSubset::from_atomic).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace vebo {

namespace detail {

/// Applies fn(base + bit) for every set bit of `word` (ascending). The
/// one word-walk primitive shared by conversions, for_each and the dense
/// vertex_map path.
template <typename Fn>
inline void for_each_set_bit(std::uint64_t word, std::size_t base,
                             Fn&& fn) {
  while (word) {
    const int b = __builtin_ctzll(word);
    fn(base + static_cast<std::size_t>(b));
    word &= word - 1;
  }
}

/// Scan-compacts the set bits of a word array into a sorted index list.
/// Word-parallel: per-block popcounts, exclusive scan over blocks, then
/// each block writes its ids at its scanned offset.
template <typename Index, typename WordAt>
std::vector<Index> words_to_sparse(std::size_t num_words, WordAt&& word_at,
                                   const ForOptions& opts) {
  std::vector<Index> out;
  if (num_words == 0) return out;
  ThreadPool& pool = opts.pool ? *opts.pool : ThreadPool::global();
  const std::size_t nthreads = pool.num_threads();
  auto emit_range = [&](std::size_t wlo, std::size_t whi, Index* dst) {
    for (std::size_t w = wlo; w < whi; ++w)
      for_each_set_bit(word_at(w), w * 64,
                       [&](std::size_t i) { *dst++ = static_cast<Index>(i); });
  };
  if (num_words < 1u << 10 || nthreads == 1) {
    std::size_t c = 0;
    for (std::size_t w = 0; w < num_words; ++w)
      c += static_cast<std::size_t>(__builtin_popcountll(word_at(w)));
    out.resize(c);
    emit_range(0, num_words, out.data());
    return out;
  }
  const std::size_t nblocks = std::min(num_words, nthreads * 8);
  const std::size_t per = num_words / nblocks, extra = num_words % nblocks;
  auto block_range = [&](std::size_t b) {
    const std::size_t lo = b * per + std::min(b, extra);
    return std::pair(lo, lo + per + (b < extra ? 1 : 0));
  };
  std::vector<std::uint64_t> off(nblocks);
  ForOptions block_opts = opts;
  block_opts.schedule = Schedule::Dynamic;
  block_opts.grain = 1;
  block_opts.serial_cutoff = 1;
  parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        auto [lo, hi] = block_range(b);
        std::uint64_t c = 0;
        for (std::size_t w = lo; w < hi; ++w)
          c += static_cast<std::uint64_t>(__builtin_popcountll(word_at(w)));
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
        emit_range(lo, hi, out.data() + off[b]);
      },
      block_opts);
  return out;
}

template <typename WordAt>
std::size_t words_count(std::size_t num_words, WordAt&& word_at,
                        const ForOptions& opts) {
  if (num_words < 1u << 12)
    return [&] {
      std::size_t c = 0;
      for (std::size_t w = 0; w < num_words; ++w)
        c += static_cast<std::size_t>(__builtin_popcountll(word_at(w)));
      return c;
    }();
  return parallel_reduce<std::size_t>(
      0, num_words, 0,
      [&](std::size_t w) {
        return static_cast<std::size_t>(__builtin_popcountll(word_at(w)));
      },
      [](std::size_t a, std::size_t b) { return a + b; }, opts);
}

}  // namespace detail

/// Plain dynamic bitset with population count and word-level access.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t n, bool value = false)
      : n_(n), words_((n + 63) / 64, value ? ~0ULL : 0ULL) {
    trim();
  }
  /// Adopts a preassembled word array (e.g. AtomicBitset::take_words()).
  /// Bits at positions >= n are cleared.
  DynamicBitset(std::size_t n, std::vector<std::uint64_t> words)
      : n_(n), words_(std::move(words)) {
    words_.resize((n + 63) / 64, 0ULL);
    trim();
  }

  std::size_t size() const { return n_; }

  bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }
  void set(std::size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }
  void clear(std::size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }

  /// Thread-safe set for concurrent writers on a plain bitset (used by
  /// parallel sparse -> dense conversion where distinct vertices may
  /// share a word).
  void set_atomic(std::size_t i) {
    std::atomic_ref<std::uint64_t> w(words_[i >> 6]);
    w.fetch_or(1ULL << (i & 63), std::memory_order_relaxed);
  }

  void reset() { std::fill(words_.begin(), words_.end(), 0ULL); }

  std::size_t count() const {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }
  /// Parallel population count (word-parallel reduction).
  std::size_t count_parallel(const ForOptions& opts = {}) const {
    return detail::words_count(
        words_.size(), [this](std::size_t w) { return words_[w]; }, opts);
  }

  std::size_t num_words() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Sorted list of set-bit positions via parallel scan compaction.
  template <typename Index = std::uint32_t>
  std::vector<Index> to_sparse_parallel(const ForOptions& opts = {}) const {
    return detail::words_to_sparse<Index>(
        words_.size(), [this](std::size_t w) { return words_[w]; }, opts);
  }

 private:
  void trim() {
    if (n_ % 64 != 0 && !words_.empty())
      words_.back() &= (1ULL << (n_ % 64)) - 1;
  }
  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Bitset whose set() is atomic and reports whether the bit flipped.
/// Used for "claim a destination vertex exactly once" in pull traversal
/// and for deduplicating the scan-compacted push output. Storage is a
/// plain word array accessed through std::atomic_ref, so a finished
/// frontier can hand the words to a DynamicBitset without copying.
class AtomicBitset {
 public:
  AtomicBitset() = default;
  explicit AtomicBitset(std::size_t n) : n_(n), words_((n + 63) / 64, 0ULL) {}

  std::size_t size() const { return n_; }

  bool get(std::size_t i) const {
    std::atomic_ref<std::uint64_t> w(
        const_cast<std::uint64_t&>(words_[i >> 6]));
    return (w.load(std::memory_order_relaxed) >> (i & 63)) & 1ULL;
  }

  /// Atomically sets bit i; returns true iff this call flipped it 0 -> 1.
  bool set(std::size_t i) {
    const std::uint64_t mask = 1ULL << (i & 63);
    std::atomic_ref<std::uint64_t> w(words_[i >> 6]);
    return (w.fetch_or(mask, std::memory_order_relaxed) & mask) == 0;
  }

  /// Atomically clears bit i (concurrent clears of distinct bits in the
  /// same word are safe).
  void clear(std::size_t i) {
    std::atomic_ref<std::uint64_t> w(words_[i >> 6]);
    w.fetch_and(~(1ULL << (i & 63)), std::memory_order_relaxed);
  }

  /// Not thread-safe; callers must quiesce writers first.
  void reset() { std::fill(words_.begin(), words_.end(), 0ULL); }

  std::size_t count() const {
    std::size_t c = 0;
    for (std::size_t w = 0; w < words_.size(); ++w)
      c += static_cast<std::size_t>(__builtin_popcountll(word(w)));
    return c;
  }
  std::size_t count_parallel(const ForOptions& opts = {}) const {
    return detail::words_count(
        words_.size(), [this](std::size_t w) { return word(w); }, opts);
  }

  std::size_t num_words() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const {
    std::atomic_ref<std::uint64_t> r(const_cast<std::uint64_t&>(words_[w]));
    return r.load(std::memory_order_relaxed);
  }
  const std::vector<std::uint64_t>& words() const { return words_; }

  template <typename Index = std::uint32_t>
  std::vector<Index> to_sparse_parallel(const ForOptions& opts = {}) const {
    return detail::words_to_sparse<Index>(
        words_.size(), [this](std::size_t w) { return word(w); }, opts);
  }

  /// Releases the word storage (leaves this bitset empty). The caller
  /// adopts the words — the zero-copy path behind
  /// VertexSubset::from_atomic.
  std::vector<std::uint64_t> take_words() && {
    n_ = 0;
    return std::move(words_);
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace vebo
