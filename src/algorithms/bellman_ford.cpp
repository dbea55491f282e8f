#include "algorithms/bellman_ford.hpp"

#include <array>
#include <atomic>
#include <cstddef>

#include "algorithms/incremental.hpp"
#include "algorithms/spmv.hpp"  // edge_weight
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

// Dial's bucket queue: bucket k holds labels in [k, k+1) * kBucketWidth.
// A relaxation adds between kMinEdgeWeight and kMaxEdgeWeight, so out of
// bucket k it lands in buckets k+1 .. k + kMaxEdgeWeight/kMinEdgeWeight:
// a ring one slot longer than that span holds every pending label, and
// no two pending buckets share a slot. Labels are sums of whole-number
// weights, so a bucket of width 1 holds a single label.
constexpr double kBucketWidth = kMinEdgeWeight;
constexpr std::size_t kBucketRing =
    static_cast<std::size_t>(kMaxEdgeWeight / kMinEdgeWeight) + 1;
static_assert(static_cast<double>(kBucketRing - 1) * kBucketWidth >=
                  kMaxEdgeWeight,
              "the bucket ring must span kMaxEdgeWeight / kMinEdgeWeight");
static_assert(kBucketWidth == 1.0, "one whole-number label per bucket");

/// The one-thread pass: settles each reached vertex the first time its
/// bucket comes up and relaxes its out-edges once. Every label in bucket
/// k is final by then, because a relaxation out of bucket k or later
/// lands past it. A vertex whose label drops again moves to an earlier
/// bucket, never twice into one; the entry it leaves behind is stale
/// (its label is below the bucket's) and is skipped.
QueryPayload settle_by_buckets(const Engine& eng, VertexId source) {
  obs::SpanScope pass(obs::SpanKind::Iteration);
  const Graph& g = eng.graph();
  std::vector<double> dist(g.num_vertices(), kUnreachable);
  int rounds = 0;
  VertexId reached = 0;
  std::array<std::vector<VertexId>, kBucketRing> ring;
  dist[source] = 0.0;
  ring[0].push_back(source);
  std::size_t pending = 1;  // entries across the ring
  for (std::size_t k = 0; pending > 0; ++k) {
    std::vector<VertexId>& bucket = ring[k % kBucketRing];
    if (bucket.empty()) continue;
    eng.poll_cancellation();
    const double lo = static_cast<double>(k) * kBucketWidth;
    const VertexId settled_before = reached;
    for (const VertexId u : bucket) {  // relaxations land in other slots
      const double du = dist[u];
      if (du < lo) continue;
      ++reached;
      for (const VertexId v : g.out_neighbors(u)) {
        const double cand = du + edge_weight(u, v);
        if (cand >= dist[v]) continue;
        dist[v] = cand;
        ring[static_cast<std::size_t>(cand / kBucketWidth) % kBucketRing]
            .push_back(v);
        ++pending;
      }
    }
    pending -= bucket.size();
    bucket.clear();
    rounds += reached != settled_before;
  }
  if (pass.live()) {
    pass.span().a = static_cast<std::uint64_t>(rounds);
    pass.span().b = reached;
  }
  return QueryPayload::vertex_doubles(std::move(dist));
}

/// Distances from `source`.
QueryPayload run_bf(const Engine& eng, const QueryParams& p) {
  const VertexId source = p.get_vertex("source");
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  VEBO_CHECK(source < n, "bellman_ford: source out of range");
  // One thread has nothing to balance, so it takes the serial pass, which
  // settles each vertex once; the paper's rounds exist for the balanced
  // parallel supersteps below.
  if (eng.pool().num_threads() == 1) return settle_by_buckets(eng, source);

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
