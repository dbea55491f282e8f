// Tests for the scan-compacted frontier pipeline: parallel sparse<->dense
// conversions (word boundaries, storage adoption, dual-representation
// reuse), the pack helper, cached out-degree sums, and the push/pull/auto
// equivalence property for bfs/cc/pagerank_delta-style functors across
// the rmat, powerlaw and road generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "framework/edgemap.hpp"
#include "framework/engine.hpp"
#include "framework/vertex_subset.hpp"
#include "gen/powerlaw.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "parallel/scan_pack.hpp"
#include "support/bitset.hpp"
#include "support/prng.hpp"

namespace vebo {
namespace {

std::vector<VertexId> sorted_ids(VertexSubset s) {
  s.to_sparse();
  auto v = s.vertices();
  std::vector<VertexId> out(v.begin(), v.end());
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------- conversions & word layout

class RoundTrip : public ::testing::TestWithParam<VertexId> {};

TEST_P(RoundTrip, SparseDenseSparsePreservesMembership) {
  const VertexId n = GetParam();
  Xoshiro256 rng(n);
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < n; ++v)
    if (rng.next_below(3) == 0) ids.push_back(v);
  auto expect = ids;

  VertexSubset s = VertexSubset::from_sparse(n, ids);
  s.to_dense();
  EXPECT_TRUE(s.is_dense());
  EXPECT_EQ(s.size(), expect.size());
  s.to_sparse();
  EXPECT_FALSE(s.is_dense());
  EXPECT_EQ(sorted_ids(s), expect);
}

TEST_P(RoundTrip, EmptySubset) {
  const VertexId n = GetParam();
  VertexSubset s = VertexSubset::empty(n);
  s.to_dense();
  EXPECT_EQ(s.size(), 0u);
  s.to_sparse();
  EXPECT_TRUE(s.empty_set());
}

TEST_P(RoundTrip, FullSubset) {
  const VertexId n = GetParam();
  VertexSubset s = VertexSubset::all(n);
  s.to_sparse();
  EXPECT_EQ(s.size(), n);
  auto ids = sorted_ids(s);
  for (VertexId v = 0; v < n; ++v) ASSERT_EQ(ids[v], v);
  s.to_dense();
  EXPECT_EQ(s.bits().count(), n);
}

// n deliberately not a multiple of 64 in most cases.
INSTANTIATE_TEST_SUITE_P(WordBoundaries, RoundTrip,
                         ::testing::Values(1, 63, 64, 65, 130, 1000, 4096));

TEST(FromAtomic, AdoptsWordStorage) {
  AtomicBitset a(130);
  a.set(0);
  a.set(63);
  a.set(64);
  a.set(129);
  const std::uint64_t* storage = a.words().data();
  VertexSubset s = VertexSubset::from_atomic(std::move(a));
  EXPECT_TRUE(s.is_dense());
  EXPECT_EQ(s.size(), 4u);
  // Zero-copy: the subset's bitset owns the exact same word array.
  EXPECT_EQ(s.bits().words().data(), storage);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(129));
  EXPECT_FALSE(s.contains(65));
}

TEST(FromAtomic, SizeHintSkipsCount) {
  AtomicBitset a(100);
  a.set(7);
  a.set(93);
  VertexSubset s = VertexSubset::from_atomic(std::move(a), 2);
  EXPECT_EQ(s.size(), 2u);
}

TEST(DualRepresentation, ConversionsKeepBothAndReuseStorage) {
  std::vector<VertexId> ids = {3, 77, 128, 400};
  VertexSubset s = VertexSubset::from_sparse(500, ids);
  EXPECT_TRUE(s.has_sparse());
  EXPECT_FALSE(s.has_dense());
  s.to_dense();
  EXPECT_TRUE(s.has_sparse());
  EXPECT_TRUE(s.has_dense());
  const std::uint64_t* words = s.bits().words().data();
  // Ping-pong: both representations stay valid, nothing is rebuilt.
  s.to_sparse();
  EXPECT_FALSE(s.is_dense());
  EXPECT_TRUE(s.has_dense());
  s.to_dense();
  EXPECT_TRUE(s.is_dense());
  EXPECT_EQ(s.bits().words().data(), words);
  EXPECT_EQ(sorted_ids(s), ids);
}

TEST(Bitset, ToSparseParallelMatchesSerial) {
  const std::size_t n = 100000;
  DynamicBitset bits(n);
  Xoshiro256 rng(11);
  std::vector<std::uint32_t> expect;
  for (std::size_t i = 0; i < n; ++i)
    if (rng.next_below(5) == 0) {
      bits.set(i);
      expect.push_back(static_cast<std::uint32_t>(i));
    }
  EXPECT_EQ(bits.to_sparse_parallel(), expect);
  EXPECT_EQ(bits.count_parallel(), expect.size());
  EXPECT_EQ(bits.count(), expect.size());
}

TEST(Bitset, AtomicSetReportsFlip) {
  AtomicBitset a(70);
  EXPECT_TRUE(a.set(69));
  EXPECT_FALSE(a.set(69));
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.to_sparse_parallel(),
            std::vector<std::uint32_t>{69});
}

// ------------------------------------------------------------- pack

/// pack_map keeping the indices themselves.
template <typename Pred>
std::vector<std::uint32_t> pack_indices(std::size_t n, Pred&& pred) {
  return pack_map<std::uint32_t>(
      n, pred, [](std::size_t i) { return static_cast<std::uint32_t>(i); });
}

TEST(PackMap, MatchesSerialReference) {
  const std::size_t n = 100000;
  auto pred = [](std::size_t i) { return (i * 2654435761u) % 7 == 0; };
  std::vector<std::uint32_t> expect;
  for (std::size_t i = 0; i < n; ++i)
    if (pred(i)) expect.push_back(static_cast<std::uint32_t>(i));
  EXPECT_EQ(pack_indices(n, pred), expect);
}

TEST(PackMap, EmptyAndFull) {
  EXPECT_TRUE(pack_indices(0, [](std::size_t) { return true; }).empty());
  EXPECT_TRUE(pack_indices(10000, [](std::size_t) { return false; }).empty());
  auto all = pack_indices(10000, [](std::size_t) { return true; });
  ASSERT_EQ(all.size(), 10000u);
  EXPECT_EQ(all[9999], 9999u);
}

// ------------------------------------------------- cached degree sums

TEST(OutEdges, CachedSumMatchesManualWalk) {
  const Graph g = gen::rmat(10, 6, 3);
  const VertexId n = g.num_vertices();
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < n; v += 5) ids.push_back(v);
  EdgeId manual = 0;
  for (VertexId v : ids) manual += g.out_degree(v);

  VertexSubset s = VertexSubset::from_sparse(n, ids);
  EXPECT_EQ(s.out_edges(g), manual);
  s.to_dense();
  EXPECT_EQ(s.out_edges(g), manual);  // cache survives conversions

  VertexSubset d = s;
  d.to_dense();
  VertexSubset dense_only = VertexSubset::from_bitset(d.bits());
  EXPECT_EQ(dense_only.out_edges(g), manual);  // dense word-walk path
}

// --------------------------------------------- is_complete tracking

TEST(IsComplete, TrackedAcrossConstructionAndConversions) {
  const VertexId n = 130;  // not a multiple of 64
  // all() is complete and stays complete through conversions.
  VertexSubset s = VertexSubset::all(n);
  EXPECT_TRUE(s.is_complete());
  s.to_sparse();
  EXPECT_TRUE(s.is_complete());
  s.to_dense();
  EXPECT_TRUE(s.is_complete());

  // A sparse list that happens to cover the universe is complete too.
  std::vector<VertexId> ids(n);
  for (VertexId v = 0; v < n; ++v) ids[v] = v;
  VertexSubset full = VertexSubset::from_sparse(n, ids);
  EXPECT_TRUE(full.is_complete());
  full.to_dense();
  EXPECT_TRUE(full.is_complete());

  // from_packed and from_atomic variants.
  EXPECT_TRUE(VertexSubset::from_packed(n, std::move(ids), true)
                  .is_complete());
  AtomicBitset a(n);
  for (VertexId v = 0; v < n; ++v) a.set(v);
  EXPECT_TRUE(VertexSubset::from_atomic(std::move(a)).is_complete());

  // Not complete: missing one vertex, empty, single.
  std::vector<VertexId> most;
  for (VertexId v = 0; v + 1 < n; ++v) most.push_back(v);
  VertexSubset partial = VertexSubset::from_sparse(n, std::move(most));
  EXPECT_FALSE(partial.is_complete());
  partial.to_dense();
  EXPECT_FALSE(partial.is_complete());
  EXPECT_FALSE(VertexSubset::empty(n).is_complete());
  EXPECT_FALSE(VertexSubset::single(n, 0).is_complete());
}

// ------------------------------------- push/pull/auto equivalence

// BFS-style: claim unvisited destinations (CAS parent).
struct BfsLike {
  std::atomic<VertexId>* parent;
  bool update(VertexId u, VertexId v) {
    if (parent[v].load(std::memory_order_relaxed) == kInvalidVertex) {
      parent[v].store(u, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  bool update_atomic(VertexId u, VertexId v) {
    VertexId expected = kInvalidVertex;
    return parent[v].compare_exchange_strong(expected, u,
                                             std::memory_order_relaxed);
  }
  bool cond(VertexId v) const {
    return parent[v].load(std::memory_order_relaxed) == kInvalidVertex;
  }
};

// CC-style: propagate minimum label; activates on every decrease. Reads
// the source label from the previous round's snapshot (synchronous /
// Jacobi form) — the asynchronous form chains updates within a round,
// which makes the activated set depend on traversal order and therefore
// on direction.
struct CcLike {
  const VertexId* prev;
  std::atomic<VertexId>* label;
  bool apply(VertexId u, VertexId v) {
    const VertexId lu = prev[u];
    VertexId cur = label[v].load(std::memory_order_relaxed);
    while (lu < cur) {
      if (label[v].compare_exchange_weak(cur, lu, std::memory_order_relaxed))
        return true;
    }
    return false;
  }
  bool update(VertexId u, VertexId v) { return apply(u, v); }
  bool update_atomic(VertexId u, VertexId v) { return apply(u, v); }
  bool cond(VertexId) const { return true; }
};

// PageRank-delta-style: accumulate mass; activates on first contribution.
struct PrDeltaLike {
  const double* contrib;
  std::atomic<double>* acc;
  std::atomic<std::uint32_t>* hits;
  bool apply(VertexId u, VertexId v) {
    double cur = acc[v].load(std::memory_order_relaxed);
    while (!acc[v].compare_exchange_weak(cur, cur + contrib[u],
                                         std::memory_order_relaxed)) {
    }
    return hits[v].fetch_add(1, std::memory_order_relaxed) == 0;
  }
  bool update(VertexId u, VertexId v) { return apply(u, v); }
  bool update_atomic(VertexId u, VertexId v) { return apply(u, v); }
  bool cond(VertexId) const { return true; }
};

struct FunctorKind {
  enum Kind { Bfs, Cc, PrDelta } kind;
  const char* name;
};

Graph make_generator_graph(const std::string& which) {
  if (which == "rmat") return gen::rmat(12, 8, 5);
  if (which == "powerlaw") return gen::zipf_directed(4096, 3);
  return gen::road_grid(48, 48, 9);
}

// Steps the same functor under forced Push, forced Pull and Auto from the
// same start frontier, with independent state per direction; the produced
// frontier must be the same vertex set every round.
void check_direction_equivalence(const Graph& g, SystemModel model,
                                 FunctorKind::Kind kind) {
  const VertexId n = g.num_vertices();
  Engine eng(g, model, model == SystemModel::Ligra
                           ? EngineOptions{}
                           : EngineOptions{.partitions = 8});
  const Direction dirs[] = {Direction::Push, Direction::Pull,
                            Direction::Auto};

  // Per-direction state.
  std::vector<std::vector<std::atomic<VertexId>>> vstate;
  std::vector<std::vector<VertexId>> prev(3);  // CC's round snapshot
  std::vector<std::vector<std::atomic<double>>> accs(3);
  std::vector<std::vector<std::atomic<std::uint32_t>>> hits(3);
  std::vector<double> contrib(n);
  for (VertexId v = 0; v < n; ++v)
    contrib[v] = 1.0 / (static_cast<double>(g.out_degree(v)) + 1.0);
  for (int d = 0; d < 3; ++d) {
    vstate.emplace_back(n);
    for (VertexId v = 0; v < n; ++v) {
      if (kind == FunctorKind::Bfs)
        vstate[d][v].store(kInvalidVertex, std::memory_order_relaxed);
      else
        vstate[d][v].store(v, std::memory_order_relaxed);
    }
  }

  std::vector<VertexSubset> frontier;
  for (int d = 0; d < 3; ++d) {
    if (kind == FunctorKind::Bfs) {
      vstate[d][0].store(0, std::memory_order_relaxed);
      frontier.push_back(VertexSubset::single(n, 0));
    } else {
      frontier.push_back(VertexSubset::all(n));
    }
  }

  // One edge_map step of `kind` against explicit state arrays.
  auto step = [&](VertexSubset& f_in, std::atomic<VertexId>* vs,
                  const VertexId* prev_labels, std::atomic<double>* acc,
                  std::atomic<std::uint32_t>* hit,
                  const EdgeMapOptions& opts) {
    switch (kind) {
      case FunctorKind::Bfs: {
        BfsLike f{vs};
        return edge_map(eng, f_in, f, opts);
      }
      case FunctorKind::Cc: {
        CcLike f{prev_labels, vs};
        return edge_map(eng, f_in, f, opts);
      }
      default: {
        PrDeltaLike f{contrib.data(), acc, hit};
        return edge_map(eng, f_in, f, opts);
      }
    }
  };

  for (int round = 0; round < 8; ++round) {
    if (kind == FunctorKind::PrDelta) {
      for (int d = 0; d < 3; ++d) {
        accs[d] = std::vector<std::atomic<double>>(n);
        hits[d] = std::vector<std::atomic<std::uint32_t>>(n);
        for (VertexId v = 0; v < n; ++v) {
          accs[d][v].store(0.0, std::memory_order_relaxed);
          hits[d][v].store(0, std::memory_order_relaxed);
        }
      }
    }
    std::vector<std::vector<VertexId>> outs;
    for (int d = 0; d < 3; ++d) {
      EdgeMapOptions opts{.direction = dirs[d], .early_exit = false};
      if (kind == FunctorKind::Cc) {
        prev[d].resize(n);
        for (VertexId v = 0; v < n; ++v)
          prev[d][v] = vstate[d][v].load(std::memory_order_relaxed);
      }

      VertexSubset out =
          step(frontier[d], vstate[d].data(),
               kind == FunctorKind::Cc ? prev[d].data() : nullptr,
               accs[d].data(), hits[d].data(), opts);

      outs.push_back(sorted_ids(out));
      frontier[d] = std::move(out);
    }
    ASSERT_EQ(outs[0], outs[1]) << "push/pull diverged at round " << round;
    ASSERT_EQ(outs[0], outs[2]) << "push/auto diverged at round " << round;

    // State agreement: labels identical; accumulated mass within fp
    // reassociation tolerance.
    if (kind == FunctorKind::Cc || kind == FunctorKind::Bfs) {
      for (VertexId v = 0; v < n; ++v) {
        if (kind == FunctorKind::Cc) {
          ASSERT_EQ(vstate[0][v].load(), vstate[1][v].load()) << "v=" << v;
          ASSERT_EQ(vstate[0][v].load(), vstate[2][v].load()) << "v=" << v;
        }
      }
    } else {
      for (VertexId v = 0; v < n; ++v) {
        const double a = accs[0][v].load(), b = accs[1][v].load();
        ASSERT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(a))) << "v=" << v;
      }
    }
    if (frontier[0].empty_set()) break;
    // PrDelta would otherwise re-activate everything forever: stop after
    // a few rounds of full coverage.
    if (kind == FunctorKind::PrDelta && round >= 2) break;
  }
}

class DirectionEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(DirectionEquivalence, PushPullAutoProduceIdenticalFrontiers) {
  const auto& [generator, kind] = GetParam();
  const Graph g = make_generator_graph(generator);
  check_direction_equivalence(g, SystemModel::Ligra,
                              static_cast<FunctorKind::Kind>(kind));
}

TEST_P(DirectionEquivalence, HoldsUnderPartitionedPull) {
  const auto& [generator, kind] = GetParam();
  const Graph g = make_generator_graph(generator);
  check_direction_equivalence(g, SystemModel::Polymer,
                              static_cast<FunctorKind::Kind>(kind));
}

TEST_P(DirectionEquivalence, HoldsUnderGraphGrindModel) {
  const auto& [generator, kind] = GetParam();
  const Graph g = make_generator_graph(generator);
  check_direction_equivalence(g, SystemModel::GraphGrind,
                              static_cast<FunctorKind::Kind>(kind));
}

std::string equivalence_case_name(
    const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
  static const char* kinds[] = {"bfs", "cc", "pagerank_delta"};
  return std::get<0>(info.param) + "_" + kinds[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Generators, DirectionEquivalence,
    ::testing::Combine(::testing::Values("rmat", "powerlaw", "road"),
                       ::testing::Values(0, 1, 2)),
    equivalence_case_name);

// ------------------------------------------- dense kernel specializations

// A complete frontier dispatches to the probe-free kernel; it must
// produce exactly what the probing kernel produces on an all-set bitset.
TEST(DensePath, CompleteFrontierMatchesProbingKernel) {
  const Graph g = gen::rmat(11, 6, 4);
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);

  // Non-monotone labels so min-propagation does real work.
  std::vector<VertexId> prev(n);
  std::vector<std::atomic<VertexId>> label_c(n), label_p(n);
  for (VertexId v = 0; v < n; ++v) {
    prev[v] = (v * 7919 + 13) % n;
    label_c[v].store(prev[v], std::memory_order_relaxed);
    label_p[v].store(prev[v], std::memory_order_relaxed);
  }

  // Complete path through the public dispatch.
  VertexSubset all = VertexSubset::all(n);
  ASSERT_TRUE(all.is_complete());
  CcLike f_c{prev.data(), label_c.data()};
  VertexSubset out_c = edge_map(
      eng, all, f_c, {.direction = Direction::Pull, .early_exit = false});

  // Probing kernel instantiated directly on an all-set bitset.
  DynamicBitset fullbits(n, true);
  DynamicBitset next(n);
  CcLike f_p{prev.data(), label_p.data()};
  const BitsetProbe probe{fullbits};
  for_dense_ranges(eng, [&](VertexId lo, VertexId hi) {
    StripeSink sink(next, lo, hi);
    edge_map_pull_range(g, f_p, probe, sink, lo, hi, /*early_exit=*/false);
  });
  VertexSubset out_p = VertexSubset::from_bitset(std::move(next));

  EXPECT_EQ(sorted_ids(out_c), sorted_ids(out_p));
  for (VertexId v = 0; v < n; ++v)
    ASSERT_EQ(label_c[v].load(), label_p[v].load()) << "v=" << v;
}

// The edge-balanced dense schedule (with striped non-atomic output) must
// produce results identical to the pre-PR vertex-chunked probing pull
// with an atomic output bitset.
TEST(DensePath, EdgeBalancedMatchesVertexChunkedReference) {
  const Graph g = gen::rmat(11, 6, 3);
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < n; v += 3) ids.push_back(v);
  VertexSubset frontier = VertexSubset::from_sparse(n, ids);
  frontier.to_dense();

  std::vector<VertexId> prev(n);
  std::vector<std::atomic<VertexId>> label_new(n), label_ref(n);
  for (VertexId v = 0; v < n; ++v) {
    prev[v] = (v * 131 + 7) % n;
    label_new[v].store(prev[v], std::memory_order_relaxed);
    label_ref[v].store(prev[v], std::memory_order_relaxed);
  }

  CcLike f_new{prev.data(), label_new.data()};
  VertexSubset fcopy = frontier;
  VertexSubset out_new = edge_map(
      eng, fcopy, f_new, {.direction = Direction::Pull, .early_exit = false});

  AtomicBitset next(n);
  const DynamicBitset& fbits = frontier.bits();
  CcLike f_ref{prev.data(), label_ref.data()};
  parallel_for_range(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (VertexId v = static_cast<VertexId>(lo);
             v < static_cast<VertexId>(hi); ++v)
          for (VertexId u : g.in_neighbors(v)) {
            if (!fbits.get(u)) continue;
            if (f_ref.update(u, v)) next.set(v);
          }
      },
      eng.vertex_loop());
  VertexSubset out_ref = VertexSubset::from_atomic(std::move(next));

  EXPECT_EQ(sorted_ids(out_new), sorted_ids(out_ref));
  for (VertexId v = 0; v < n; ++v)
    ASSERT_EQ(label_new[v].load(), label_ref[v].load()) << "v=" << v;
}

// edge_fold must equal a serial per-destination gather bit-for-bit (the
// accumulation order is the ascending in-neighbor order in both), for
// complete and partial frontiers, across all three system models.
TEST(DensePath, EdgeFoldMatchesSerialGatherAcrossModels) {
  const Graph g = gen::rmat(11, 6, 5);
  const VertexId n = g.num_vertices();
  std::vector<double> val(n);
  for (VertexId v = 0; v < n; ++v) val[v] = 1.0 + (v % 13) * 0.5;

  for (SystemModel model : {SystemModel::Ligra, SystemModel::Polymer,
                            SystemModel::GraphGrind}) {
    Engine eng(g, model, model == SystemModel::Ligra
                             ? EngineOptions{}
                             : EngineOptions{.partitions = 8});
    std::vector<double> got(n, -1.0);
    edge_fold<double>(
        eng, [&](VertexId u, VertexId) { return val[u]; },
        [&](VertexId v, double a) { got[v] = a; });
    for (VertexId v = 0; v < n; ++v) {
      double want = 0;
      for (VertexId u : g.in_neighbors(v)) want += val[u];
      ASSERT_EQ(got[v], want) << "model=" << to_string(model) << " v=" << v;
    }

    std::vector<VertexId> ids;
    for (VertexId v = 0; v < n; v += 4) ids.push_back(v);
    VertexSubset frontier = VertexSubset::from_sparse(n, ids);
    std::vector<double> got2(n, -1.0);
    edge_fold<double>(
        eng, frontier, [&](VertexId u, VertexId) { return val[u]; },
        [&](VertexId v, double a) { got2[v] = a; });
    for (VertexId v = 0; v < n; ++v) {
      double want = 0;
      for (VertexId u : g.in_neighbors(v))
        if (u % 4 == 0) want += val[u];
      ASSERT_EQ(got2[v], want) << "model=" << to_string(model) << " v=" << v;
    }
  }
}

// Engine::dense_chunks invariants: boundaries cover [0, n], are
// monotone, and every chunk's in-edge + destination load is within a
// factor of the ideal share (up to one max-degree row).
TEST(DensePath, DenseChunksCoverAndBalance) {
  const Graph g = gen::rmat(12, 8, 7);
  const VertexId n = g.num_vertices();
  Engine eng(g, SystemModel::Ligra);
  const auto chunks = eng.dense_chunks();
  ASSERT_GE(chunks.size(), 2u);
  EXPECT_EQ(chunks.front(), 0u);
  EXPECT_EQ(chunks.back(), n);
  const std::uint64_t total = g.num_edges() + n;
  const std::uint64_t share = total / (chunks.size() - 1);
  for (std::size_t t = 0; t + 1 < chunks.size(); ++t) {
    ASSERT_LE(chunks[t], chunks[t + 1]);
    std::uint64_t load = chunks[t + 1] - chunks[t];
    for (VertexId v = chunks[t]; v < chunks[t + 1]; ++v)
      load += g.in_degree(v);
    // A chunk can overshoot the share by at most one row (the boundary
    // vertex's whole in-list belongs to it).
    EXPECT_LE(load, share + g.max_in_degree() + 1)
        << "chunk " << t << " overloaded";
  }
}

}  // namespace
}  // namespace vebo
