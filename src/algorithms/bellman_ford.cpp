#include "algorithms/bellman_ford.hpp"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "algorithms/incremental.hpp"
#include "algorithms/spmv.hpp"  // edge_weight, edge_weight_int
#include "framework/edgemap.hpp"
#include "support/error.hpp"

namespace vebo::algo {

namespace {

struct BfFunctor {
  std::atomic<double>* dist;

  /// Atomic min of dist[v] against dist[u] + w(u,v); true if improved.
  bool relax(VertexId u, VertexId v) {
    const double du = dist[u].load(std::memory_order_relaxed);
    if (du == kUnreachable) return false;
    const double cand = du + edge_weight(u, v);
    double cur = dist[v].load(std::memory_order_relaxed);
    while (cand < cur) {
      if (dist[v].compare_exchange_weak(cur, cand,
                                        std::memory_order_relaxed))
        return true;
    }
    return false;
  }

  bool update(VertexId u, VertexId v) { return relax(u, v); }
  bool update_atomic(VertexId u, VertexId v) { return relax(u, v); }
  bool cond(VertexId) const { return true; }
};

// Dial's bucket queue over whole-number labels: bucket k holds label k.
// A relaxation adds between kMinEdgeWeight and kMaxEdgeWeight, so out of
// bucket k it lands in buckets k + 1 .. k + kMaxEdgeWeight: a ring one
// slot longer than kMaxEdgeWeight holds every pending label, and no two
// pending buckets share a slot.
constexpr auto kMaxWeight = static_cast<std::uint32_t>(kMaxEdgeWeight);
constexpr std::size_t kBucketRing = std::size_t{kMaxWeight} + 1;
static_assert(kMinEdgeWeight >= 1.0, "a relaxation leaves its bucket");

// The pass keeps 32-bit labels, all ones for "unreached": that halves the
// array it reads at random. A label it stores is a simple path's sum, at
// most (n - 1) * kMaxEdgeWeight, so it stays below kUnreached on graphs
// of up to kBucketPassMaxVertices vertices and no more.
using Label = std::uint32_t;
constexpr Label kUnreached = ~Label{0};
constexpr VertexId kBucketPassMaxVertices = VertexId{1} << 27;
static_assert(std::uint64_t{kBucketPassMaxVertices - 1} * kMaxWeight <
                  kUnreached,
              "every label of the largest graph the pass takes fits");
static_assert(std::uint64_t{kBucketPassMaxVertices} * kMaxWeight >=
                  kUnreached,
              "one vertex more and a label could reach the sentinel");

// The pass visits vertices in distance order, not id order, so each
// entry's label, row offsets and row are cache misses. While it scans
// entry i it requests the label and offsets of entry i + kLookAheadFar,
// and the row of entry i + kLookAheadNear, whose offsets it requested
// kLookAheadFar - kLookAheadNear entries earlier.
constexpr std::size_t kLookAheadFar = 16;
constexpr std::size_t kLookAheadNear = 8;

/// The one-thread pass: settles each reached vertex the first time its
/// bucket comes up and relaxes its out-edges once. Every label in bucket
/// k is final by then, because a relaxation out of bucket k or later
/// lands past it. A vertex whose label drops again moves to an earlier
/// bucket, never twice into one; the entry it leaves behind is stale
/// (its label is below the bucket's) and is skipped. A candidate is
/// summed in 64 bits, where du + w cannot wrap; one that beats a label
/// extends u's shortest path by a vertex not on it (those are settled
/// below du), so it is a simple path's sum.
QueryPayload settle_by_buckets(const Engine& eng, VertexId source) {
  obs::SpanScope pass(obs::SpanKind::Iteration);
  const Graph& g = eng.graph();
  const EdgeId* offsets = g.out_csr().offsets().data();
  const VertexId* targets = g.out_csr().neighbor_array().data();
  std::vector<Label> dist(g.num_vertices(), kUnreached);
  int rounds = 0;
  VertexId reached = 0;
  std::array<std::vector<VertexId>, kBucketRing> ring;
  dist[source] = 0;
  ring[0].push_back(source);
  std::size_t pending = 1;  // entries across the ring
  for (std::uint64_t k = 0; pending > 0; ++k) {
    // Relaxations land in other slots, so `bucket` holds still.
    std::vector<VertexId>& bucket = ring[k % kBucketRing];
    if (bucket.empty()) continue;
    eng.poll_cancellation();
    const VertexId settled_before = reached;
    const std::size_t size = bucket.size();
    for (std::size_t i = 0; i < size; ++i) {
      if (i + kLookAheadFar < size) {
        const VertexId far = bucket[i + kLookAheadFar];
        __builtin_prefetch(&dist[far]);
        __builtin_prefetch(&offsets[far]);
      }
      if (i + kLookAheadNear < size)
        __builtin_prefetch(targets + offsets[bucket[i + kLookAheadNear]]);
      const VertexId u = bucket[i];
      const Label du = dist[u];
      if (du < k) continue;
      ++reached;
      for (const VertexId v : g.out_neighbors(u)) {
        const std::uint64_t cand = std::uint64_t{du} + edge_weight_int(u, v);
        if (cand >= dist[v]) continue;
        dist[v] = static_cast<Label>(cand);
        ring[cand % kBucketRing].push_back(v);
        ++pending;
      }
    }
    pending -= size;
    bucket.clear();
    rounds += reached != settled_before;
  }
  if (pass.live()) {
    pass.span().a = static_cast<std::uint64_t>(rounds);
    pass.span().b = reached;
  }
  std::vector<double> out(dist.size());
  for (std::size_t v = 0; v < dist.size(); ++v)
    out[v] = dist[v] == kUnreached ? kUnreachable
                                   : static_cast<double>(dist[v]);
  return QueryPayload::vertex_doubles(std::move(out));
}

/// Distances from `source`.
QueryPayload run_bf(const Engine& eng, const QueryParams& p) {
  const VertexId source = p.get_vertex("source");
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  VEBO_CHECK(source < n, "bellman_ford: source out of range");
  // One thread has nothing to balance, so it takes the serial pass, which
  // settles each vertex once; the paper's rounds exist for the balanced
  // parallel supersteps below. A graph too large for the pass's 32-bit
  // labels takes the rounds.
  if (eng.pool().num_threads() == 1 && n <= kBucketPassMaxVertices)
    return settle_by_buckets(eng, source);

  std::vector<std::atomic<double>> dist(n);
  for (auto& d : dist) d.store(kUnreachable, std::memory_order_relaxed);
  dist[source].store(0.0, std::memory_order_relaxed);

  VertexSubset frontier = VertexSubset::single(n, source);
  BfFunctor f{dist.data()};
  int rounds = 0;
  // Standard termination: at most n rounds (weights are positive so no
  // negative cycles; the frontier empties much earlier in practice).
  while (!frontier.empty_set() && rounds < static_cast<int>(n)) {
    obs::SpanScope iter(obs::SpanKind::Iteration);
    if (iter.live()) {
      iter.span().a = static_cast<std::uint64_t>(rounds);
      iter.span().b = frontier.size();
    }
    frontier = edge_map(eng, frontier, f, {.early_exit = false});
    ++rounds;
  }

  std::vector<double> out(n);
  parallel_for(
      0, n,
      [&](std::size_t v) { out[v] = dist[v].load(std::memory_order_relaxed); },
      eng.vertex_loop());
  return QueryPayload::vertex_doubles(std::move(out));
}

}  // namespace

AlgorithmSpec bellman_ford_spec() {
  AlgorithmSpec s;
  s.code = "BF";
  s.params = ParamSchema{{"source", ParamType::Int, std::int64_t{0}}};
  s.run = run_bf;
  s.refresh = [](const Engine& eng, const QueryParams& p,
                 const QueryPayload& prev, const EdgeDelta& delta) {
    const VertexId n = eng.graph().num_vertices();
    const VertexId src = p.get_vertex("source");
    if (prev.kind() != PayloadKind::VertexDoubles ||
        prev.doubles().size() != n || src >= n ||
        prev.doubles()[src] != 0.0 ||
        !refresh_worthwhile(eng, delta, kRefreshRunFallbackFraction))
      return run_bf(eng, p);
    // Bit-exact: every distance is a left-folded path sum, and both the
    // scratch relaxation and the repair converge to the minimum over the
    // same candidate set.
    return QueryPayload::vertex_doubles(
        refresh_bf_distances(eng, src, prev.doubles(), delta));
  };
  // edge_weight(u, v) is a pure function of *snapshot* ids, so a repair
  // against a payload translated across a re-permuting publish would mix
  // two different weight functions. The serving layer only calls this
  // hook when the permutation is unchanged.
  s.refresh_needs_stable_perm = true;
  s.checksum = [](const QueryPayload& p) {
    double reached = 0;
    for (double d : p.doubles())
      if (d != kUnreachable) reached += 1;
    return reached;
  };
  return s;
}

}  // namespace vebo::algo
