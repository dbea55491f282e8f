#include "order/gorder.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "support/error.hpp"

namespace vebo::order {

namespace {

/// Lazy max-heap over (score, vertex): scores live in an array; heap
/// entries carry a stamp and stale entries are discarded on pop.
class LazyMaxHeap {
 public:
  explicit LazyMaxHeap(std::size_t n) : score_(n, 0), stamp_(n, 0) {}

  void push(VertexId v) { entries_.push_back({score_[v], stamp_[v], v}); heapify_up(); }

  void adjust(VertexId v, std::int64_t delta) {
    score_[v] += delta;
    ++stamp_[v];
    entries_.push_back({score_[v], stamp_[v], v});
    heapify_up();
  }

  std::int64_t score(VertexId v) const { return score_[v]; }

  /// Pops the valid entry with the max score among vertices where
  /// `alive(v)` is true. Returns kInvalidVertex when empty.
  template <typename Alive>
  VertexId pop_max(Alive&& alive) {
    while (!entries_.empty()) {
      const Entry top = entries_.front();
      std::pop_heap(entries_.begin(), entries_.end(), less_);
      entries_.pop_back();
      if (top.stamp == stamp_[top.v] && alive(top.v)) return top.v;
    }
    return kInvalidVertex;
  }

 private:
  struct Entry {
    std::int64_t score;
    std::uint32_t stamp;
    VertexId v;
  };
  static bool less(const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.v > b.v;  // prefer lower id on ties
  }
  static constexpr auto less_ = &LazyMaxHeap::less;

  void heapify_up() { std::push_heap(entries_.begin(), entries_.end(), less_); }

  std::vector<std::int64_t> score_;
  std::vector<std::uint32_t> stamp_;
  std::vector<Entry> entries_;
};

}  // namespace

Permutation gorder(const Graph& g, const GorderOptions& opts) {
  const VertexId n = g.num_vertices();
  VEBO_CHECK(opts.window >= 1, "gorder: window must be >= 1");

  std::vector<bool> placed(n, false);
  std::vector<VertexId> sequence;  // position -> old id
  sequence.reserve(n);
  LazyMaxHeap heap(n);
  for (VertexId v = 0; v < n; ++v) heap.push(v);

  std::deque<VertexId> window;

  // Applies +/-1 score deltas for vertex u entering (sign=+1) or leaving
  // (sign=-1) the window: out-neighbors of u gain adjacency score; vertices
  // sharing an in-neighbor with... — in Gorder the sibling term counts, for
  // candidate v, window vertices u such that some w has edges w->u and
  // w->v. We add it by expanding u's in-neighbors' out-edges.
  auto apply = [&](VertexId u, std::int64_t sign) {
    for (VertexId v : g.out_neighbors(u))
      if (!placed[v]) heap.adjust(v, sign);
    // Sibling expansion is quadratic in degree; skip hubs on either side
    // (the reference implementation bounds this with its unit heap).
    if (g.in_degree(u) > opts.hub_cutoff) return;
    for (VertexId w : g.in_neighbors(u)) {
      if (g.out_degree(w) > opts.hub_cutoff) continue;  // hub skip
      for (VertexId v : g.out_neighbors(w))
        if (!placed[v] && v != u) heap.adjust(v, sign);
    }
  };

  for (VertexId step = 0; step < n; ++step) {
    const VertexId v = heap.pop_max([&](VertexId x) { return !placed[x]; });
    VEBO_ASSERT(v != kInvalidVertex);
    placed[v] = true;
    sequence.push_back(v);
    window.push_back(v);
    apply(v, +1);
    if (window.size() > opts.window) {
      const VertexId out = window.front();
      window.pop_front();
      apply(out, -1);
    }
  }

  Permutation perm(n);
  for (VertexId i = 0; i < n; ++i) perm[sequence[i]] = i;
  return perm;
}

}  // namespace vebo::order
