// Tests for the graph core: edge lists, CSR/CSC construction, Graph,
// degree statistics, permutation machinery, and I/O round trips. The
// construction kernel (from_edges, permute, DeltaGraph::snapshot) is
// checked byte for byte against the sort-based oracle in
// graph_reference.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gen/synthetic.hpp"
#include "graph/degree.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/permute.hpp"
#include "graph_reference.hpp"
#include "order/sort_order.hpp"
#include "order/vebo.hpp"
#include "stream/delta_graph.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace vebo {
namespace {

EdgeList small_list() {
  // 0->1, 0->2, 1->2, 3->0  (n=4)
  return EdgeList(4, {{0, 1}, {0, 2}, {1, 2}, {3, 0}}, true);
}

// -------------------------------------------------------------- EdgeList

TEST(EdgeList, BasicCounts) {
  EdgeList el = small_list();
  EXPECT_EQ(el.num_vertices(), 4u);
  EXPECT_EQ(el.num_edges(), 4u);
  EXPECT_TRUE(el.directed());
}

TEST(EdgeList, ValidateRejectsOutOfRange) {
  EXPECT_THROW(EdgeList(2, {{0, 5}}, true), Error);
}

TEST(EdgeList, RejectsTheSentinelId) {
  // Endpoints must be below n, and n is at most kInvalidVertex, so the
  // sentinel is never an endpoint; the largest real id still is.
  EXPECT_THROW(EdgeList(kInvalidVertex, {{kInvalidVertex, 0}}), Error);
  EXPECT_THROW(EdgeList(kInvalidVertex, {{0, kInvalidVertex}}), Error);
  const EdgeList largest(kInvalidVertex, {{kInvalidVertex - 1, 0}});
  EXPECT_EQ(largest.num_vertices(), kInvalidVertex);
  EXPECT_EQ(largest.num_edges(), 1u);
}

TEST(EdgeList, RemoveDuplicates) {
  EdgeList el(3, {{0, 1}, {0, 1}, {1, 2}, {0, 1}}, true);
  el.remove_duplicates();
  EXPECT_EQ(el.num_edges(), 2u);
}

TEST(EdgeList, SymmetrizeAddsReverses) {
  EdgeList el(3, {{0, 1}, {1, 2}}, true);
  el.symmetrize();
  EXPECT_FALSE(el.directed());
  EXPECT_EQ(el.num_edges(), 4u);
}

// ------------------------------------------------------------------ Csr

TEST(Csr, OutRowsFromEdges) {
  const Csr csr = Graph::from_edges(small_list()).out_csr();
  EXPECT_EQ(csr.num_vertices(), 4u);
  EXPECT_EQ(csr.num_edges(), 4u);
  EXPECT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.degree(1), 1u);
  EXPECT_EQ(csr.degree(2), 0u);
  EXPECT_EQ(csr.degree(3), 1u);
  auto n0 = csr.neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()),
            (std::vector<VertexId>{1, 2}));
  EXPECT_TRUE(csr.valid());
}

TEST(Csr, InRowsAreCsc) {
  const Csr csc = Graph::from_edges(small_list()).in_csr();
  EXPECT_EQ(csc.degree(0), 1u);  // in-edges of 0: from 3
  EXPECT_EQ(csc.degree(2), 2u);
  auto in2 = csc.neighbors(2);
  EXPECT_EQ(std::vector<VertexId>(in2.begin(), in2.end()),
            (std::vector<VertexId>{0, 1}));
}

TEST(Csr, TransposeSortsRowsWithoutASort) {
  // Unsorted rows with a duplicate: 0 -> {2, 0, 2}, 1 -> {1}, 2 -> {}.
  const Csr a({0, 3, 4, 4}, {2, 0, 2, 1});
  const Csr t = a.transpose();
  EXPECT_EQ(t, Csr({0, 1, 2, 4}, {0, 1, 0, 0}));
  EXPECT_EQ(t.transpose(), Csr({0, 3, 4, 4}, {0, 2, 2, 1}));
  EXPECT_TRUE(t.transpose().valid());
  EXPECT_THROW(Csr({0, 1}, {1}).transpose(), Error);  // neighbor >= n
}

TEST(Csr, ScatterRejectsSizesThatDisagreeWithTheFill) {
  const std::vector<EdgeId> sizes = {1, 1};
  auto put_twice_into_row = [](VertexId row) {
    return [row](auto&& put) {
      put(row, 7);
      put(row, 8);
    };
  };
  // Row 0 overflows into row 1: caught by the exact-fill check.
  EXPECT_THROW(Csr::scatter(sizes, put_twice_into_row(0)), Error);
  // The last row overflows past the array: caught before the write.
  EXPECT_THROW(Csr::scatter(sizes, put_twice_into_row(1)), Error);
  // Too few entries, and a row id past the end.
  EXPECT_THROW(Csr::scatter(sizes, [](auto&& put) { put(0, 7); }), Error);
  EXPECT_THROW(Csr::scatter(sizes, [](auto&& put) { put(2, 7); }), Error);
  const Csr ok = Csr::scatter(sizes, [](auto&& put) {
    put(1, 8);
    put(0, 7);
  });
  EXPECT_EQ(ok, Csr({0, 1, 2}, {7, 8}));
}

TEST(Csr, RawConstructorValidates) {
  EXPECT_THROW(Csr({0, 2}, {1}), Error);  // offsets.back() != neighbors
  const Csr ok({0, 1}, {0});
  EXPECT_TRUE(ok.valid());
}

TEST(Csr, EmptyGraph) {
  const Csr csr = Graph::from_edges(EdgeList(3, {}, true)).out_csr();
  EXPECT_EQ(csr.num_vertices(), 3u);
  EXPECT_EQ(csr.num_edges(), 0u);
  EXPECT_TRUE(csr.valid());
}

// ---------------------------------------------------------------- Graph

TEST(Graph, FromEdgesBuildsBothDirections) {
  const Graph g = Graph::from_edges(small_list());
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(2), 2u);
  EXPECT_EQ(g.max_in_degree(), 2u);
  EXPECT_EQ(g.count_zero_in_degree(), 1u);  // vertex 3
  EXPECT_EQ(g.count_zero_out_degree(), 1u); // vertex 2
}

TEST(Graph, FromPartsKeepsBothParts) {
  const Graph g = Graph::from_edges(small_list());
  const Graph h = Graph::from_parts(g.out_csr(), g.in_csr(), g.directed());
  EXPECT_EQ(g.out_csr(), h.out_csr());
  EXPECT_EQ(g.in_csr(), h.in_csr());
  EXPECT_EQ(g.num_vertices(), h.num_vertices());
  EXPECT_EQ(g.num_edges(), h.num_edges());
  EXPECT_EQ(h.directed(), g.directed());
  EXPECT_EQ(walked_edges(h),
            (std::vector<Edge>{{0, 1}, {0, 2}, {1, 2}, {3, 0}}));
  EXPECT_EQ(structural_hash(g), structural_hash(h));
}

// Graph::coo() is a view of the out-CSR that perfbench makes its workload
// inputs from; nothing else may read it (vebo_lint's coo-readers rule).
// This pins what perfbench relies on.
Graph::CooView coo_view(const Graph& g) {
  return g.coo();  // vebo-lint: disable=coo-readers -- the view's own test
}

static_assert(std::forward_iterator<CsrEdgeIterator>);

TEST(Graph, CooViewIsTheEdgeWalk) {
  struct Case {
    const char* name;
    VertexId n;
    std::vector<Edge> edges;
    bool directed = true;
  };
  const std::vector<Case> cases = {
      {"n = 0", 0, {}},
      {"m = 0", 3, {}},
      {"empty rows first", 4, {{2, 0}, {3, 1}, {2, 3}}},
      {"empty rows in the middle", 5, {{0, 4}, {4, 0}, {0, 1}}},
      {"empty rows last", 4, {{1, 0}, {0, 1}}},
      {"self loops", 3, {{1, 1}, {0, 0}, {1, 2}, {2, 2}}},
      {"multigraph", 3, {{0, 1}, {2, 0}, {0, 1}, {2, 0}, {0, 1}}},
      {"undirected", 4, {{0, 1}, {1, 0}, {1, 3}, {3, 1}}, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Graph g = Graph::from_edges(EdgeList(c.n, c.edges, c.directed));
    const std::vector<Edge> walk = walked_edges(g);
    EXPECT_EQ(walk, oracle::reference_build(c.n, c.edges).coo);
    EXPECT_TRUE(std::ranges::equal(coo_view(g).edges(), walk));
    // begin() of one call and end() of another, as perfbench takes them.
    EXPECT_EQ(std::vector<Edge>(coo_view(g).edges().begin(),
                                coo_view(g).edges().end()),
              walk);
    const EdgeList copy = coo_view(g);
    EXPECT_EQ(copy.num_vertices(), g.num_vertices());
    EXPECT_EQ(copy.directed(), c.directed);
    EXPECT_TRUE(std::ranges::equal(copy.edges(), walk));
  }
  EXPECT_TRUE(coo_view(Graph()).edges().empty());  // no offsets at all
}

TEST(Graph, FromPartsRejectsInconsistentParts) {
  const Graph g = Graph::from_edges(small_list());
  // CSC with the wrong edge count.
  EXPECT_THROW(
      Graph::from_parts(g.out_csr(), Csr({0, 0, 0, 0, 0}, {}), true), Error);
  // CSC with the wrong vertex count.
  EXPECT_THROW(Graph::from_parts(g.out_csr(), Csr({0, 4, 4, 4}, {0, 0, 1, 3}),
                                 true),
               Error);
}

TEST(Graph, DescribeMentionsCounts) {
  const Graph g = Graph::from_edges(small_list());
  const std::string d = g.describe("tiny");
  EXPECT_NE(d.find("tiny"), std::string::npos);
  EXPECT_NE(d.find("|V|=4"), std::string::npos);
}

TEST(Graph, Figure3ExampleDegrees) {
  const Graph g = gen::figure3_example();
  ASSERT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.num_edges(), 14u);
  const EdgeId expected[] = {1, 2, 2, 2, 4, 3};
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.in_degree(v), expected[v]);
}

// --------------------------------------------------------------- degree

TEST(Degree, ArraysMatchGraph) {
  const Graph g = Graph::from_edges(small_list());
  const auto ind = in_degrees(g);
  const auto outd = out_degrees(g);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(ind[v], g.in_degree(v));
    EXPECT_EQ(outd[v], g.out_degree(v));
  }
}

TEST(Degree, SortByDecreasingInDegreeStable) {
  const Graph g = gen::figure3_example();
  const auto order = vertices_by_decreasing_in_degree(g);
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], 4u);  // degree 4
  EXPECT_EQ(order[1], 5u);  // degree 3
  // degree-2 class in ascending id order (stability)
  EXPECT_EQ(order[2], 1u);
  EXPECT_EQ(order[3], 2u);
  EXPECT_EQ(order[4], 3u);
  EXPECT_EQ(order[5], 0u);  // degree 1
}

TEST(Degree, ProfileComputesPercentages) {
  const Graph g = Graph::from_edges(small_list());
  const GraphProfile p = profile(g);
  EXPECT_EQ(p.vertices, 4u);
  EXPECT_EQ(p.edges, 4u);
  EXPECT_DOUBLE_EQ(p.pct_zero_in, 25.0);
  EXPECT_DOUBLE_EQ(p.pct_zero_out, 25.0);
}

// -------------------------------------------------------------- permute

TEST(Permute, IdentityKeepsGraph) {
  const Graph g = Graph::from_edges(small_list());
  const Graph h = permute(g, identity_permutation(4));
  EXPECT_EQ(g.out_csr(), h.out_csr());
  EXPECT_EQ(structural_hash(g), structural_hash(h));
}

TEST(Permute, IsPermutationDetectsBadInput) {
  EXPECT_TRUE(is_permutation(std::vector<VertexId>{2, 0, 1}));
  EXPECT_FALSE(is_permutation(std::vector<VertexId>{0, 0, 1}));
  EXPECT_FALSE(is_permutation(std::vector<VertexId>{0, 3, 1}));
}

TEST(Permute, InvertRoundTrips) {
  const Permutation p = {2, 0, 3, 1};
  const Permutation inv = invert(p);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(inv[p[v]], v);
}

TEST(Permute, ComposeAppliesInnerFirst) {
  const Permutation inner = {1, 2, 0};
  const Permutation outer = {2, 0, 1};
  const Permutation c = compose(outer, inner);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(c[v], outer[inner[v]]);
}

TEST(Permute, RelabelPreservesStructure) {
  const Graph g = Graph::from_edges(small_list());
  const Permutation p = {3, 1, 0, 2};
  const Graph h = permute(g, p);
  EXPECT_TRUE(is_isomorphic_under(g, h, p));
  // Degrees transported.
  for (VertexId v = 0; v < 4; ++v)
    EXPECT_EQ(g.in_degree(v), h.in_degree(p[v]));
}

TEST(Permute, IsomorphismFailsForWrongWitness) {
  const Graph g = Graph::from_edges(small_list());
  const Graph h = permute(g, Permutation{3, 1, 0, 2});
  EXPECT_FALSE(is_isomorphic_under(g, h, identity_permutation(4)));
  EXPECT_FALSE(is_isomorphic_under(g, h, Permutation{3, 1, 0, 0}));
}

TEST(Permute, RejectsSizeMismatch) {
  const Graph g = Graph::from_edges(small_list());
  EXPECT_THROW(permute(g, Permutation{0, 1}), Error);
}

// ------------------------------------- construction vs the sort oracle

using oracle::expect_same_graph;
using oracle::reference_build;

/// Seeded multigraph: duplicate edges, self loops, and the top quarter of
/// the ids left isolated.
std::vector<Edge> random_multigraph(VertexId n, std::size_t m,
                                    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const VertexId live = std::max<VertexId>(1, n - n / 4);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    const auto s = static_cast<VertexId>(rng.next_below(live));
    const auto d = static_cast<VertexId>(rng.next_below(live));
    edges.push_back({s, d});
    if (rng.next_below(8) == 0) edges.push_back({s, d});  // duplicate
    if (rng.next_below(16) == 0) edges.push_back({s, s});  // self loop
  }
  return edges;
}

std::vector<Permutation> test_perms(const Graph& g, std::uint64_t seed) {
  const VertexId n = g.num_vertices();
  std::vector<Permutation> perms = {identity_permutation(n),
                                    order::random_order(n, seed)};
  if (n > 0) perms.push_back(order::vebo(g, 4).perm);
  return perms;
}

struct Input {
  const char* name;
  VertexId n;
  std::vector<Edge> edges;
  bool directed;
};

std::vector<Input> oracle_inputs() {
  std::vector<Input> in;
  in.push_back({"empty", 0, {}, true});
  in.push_back({"one vertex, looped twice", 1, {{0, 0}, {0, 0}}, true});
  in.push_back({"one isolated vertex", 1, {}, true});
  in.push_back({"multigraph 64", 64, random_multigraph(64, 300, 1), true});
  in.push_back(
      {"multigraph 1000", 1000, random_multigraph(1000, 6000, 2), true});
  EdgeList sym(200, random_multigraph(200, 900, 3), true);
  sym.symmetrize();
  in.push_back({"symmetrized", 200,
                std::vector<Edge>(sym.edges().begin(), sym.edges().end()),
                false});
  return in;
}

TEST(Construction, FromEdgesAndPermuteMatchTheSortOracle) {
  for (const Input& in : oracle_inputs()) {
    SCOPED_TRACE(in.name);
    const Graph g = Graph::from_edges(EdgeList(in.n, in.edges, in.directed));
    expect_same_graph(g, reference_build(in.n, in.edges));
    EXPECT_EQ(g.directed(), in.directed);
    for (const Permutation& p : test_perms(g, 7)) {
      const Graph h = permute(g, p);
      expect_same_graph(h, reference_build(in.n, in.edges, p));
      EXPECT_EQ(h.directed(), in.directed);
      EXPECT_TRUE(is_isomorphic_under(g, h, p));
    }
  }
}

TEST(Construction, DeltaSnapshotMatchesTheSortOracle) {
  for (const Input& in : oracle_inputs()) {
    SCOPED_TRACE(in.name);
    // Base only: the snapshot reproduces the base multigraph.
    const Graph g = Graph::from_edges(EdgeList(in.n, in.edges, in.directed));
    const stream::DeltaGraph base_only(g);
    for (const Permutation& p : test_perms(g, 11))
      expect_same_graph(base_only.snapshot(p),
                        reference_build(in.n, in.edges, p));
    if (!in.directed) continue;

    // Base plus deltas, including batches that grow the vertex set: model
    // the live edge set, then compare every relabelling of it.
    EdgeList simple(in.n, in.edges, true);
    simple.remove_duplicates();
    stream::DeltaGraph dg(Graph::from_edges(simple));
    std::set<Edge> live(simple.edges().begin(), simple.edges().end());
    Xoshiro256 rng(in.n + 5);
    for (int b = 0; b < 4; ++b) {
      const VertexId span = dg.num_vertices() + 3;  // ids past n grow it
      std::vector<stream::EdgeUpdate> batch;
      for (int i = 0; i < 40; ++i) {
        const auto s = static_cast<VertexId>(rng.next_below(span));
        const auto d = rng.next_below(6) == 0
                           ? s
                           : static_cast<VertexId>(rng.next_below(span));
        if (rng.next_below(4) == 0) {
          batch.push_back(stream::EdgeUpdate::remove(s, d));
          live.erase({s, d});
        } else {
          batch.push_back(stream::EdgeUpdate::insert(s, d));
          live.insert({s, d});
        }
      }
      dg.apply_batch(batch);
      const std::vector<Edge> edges(live.begin(), live.end());
      const Graph now =
          Graph::from_edges(EdgeList(dg.num_vertices(), edges, true));
      for (const Permutation& p : test_perms(now, 13 + b))
        expect_same_graph(dg.snapshot(p),
                          reference_build(dg.num_vertices(), edges, p));
    }
  }
}

TEST(Construction, DeltaSnapshotRejectsWrongPermutationSize) {
  const stream::DeltaGraph dg(Graph::from_edges(small_list()));
  EXPECT_THROW(dg.snapshot(Permutation{0, 1}), Error);
  EXPECT_THROW(dg.snapshot(Permutation{0, 0, 1, 2}), Error);
}

// ------------------------------------------------------------------- io

TEST(Io, AdjacencyRoundTrip) {
  const Graph g = Graph::from_edges(small_list());
  std::stringstream ss;
  io::write_adjacency(ss, g);
  const Graph h = io::read_adjacency(ss);
  EXPECT_EQ(g.out_csr(), h.out_csr());
  EXPECT_EQ(g.in_csr(), h.in_csr());
}

TEST(Io, AdjacencyRejectsBadHeader) {
  std::stringstream ss("NotAGraph\n1\n0\n");
  EXPECT_THROW(io::read_adjacency(ss), Error);
}

TEST(Io, AdjacencyRejectsTruncation) {
  std::stringstream ss("AdjacencyGraph\n3\n5\n0\n1\n");
  EXPECT_THROW(io::read_adjacency(ss), Error);
}

TEST(Io, AdjacencyRejectsAbsurdCounts) {
  // A text header promising a trillion vertices must be rejected before
  // the offsets vector is allocated (the stream is seekable, so the
  // reader can bound the honest entry count by the remaining bytes).
  std::stringstream big_n("AdjacencyGraph\n1000000000000\n3\n0\n1\n2\n");
  EXPECT_THROW(io::read_adjacency(big_n, true), Error);
  std::stringstream big_m("AdjacencyGraph\n2\n900000000000\n0\n1\n");
  EXPECT_THROW(io::read_adjacency(big_m, true), Error);
}

TEST(Io, AdjacencyRejectsNonMonotoneOffsets) {
  // n=3, m=3, offsets (3, 0, 1): offsets[0] != 0 and a decreasing pair —
  // either way the row table is invalid and must not drive indexing.
  std::stringstream ss("AdjacencyGraph\n3\n3\n3\n0\n1\n1\n2\n0\n");
  EXPECT_THROW(io::read_adjacency(ss, true), Error);
}

// Corrupt-file corpus: each mutation of Figure 3's adjacency text
// (n = 6, m = 14) breaks one rule of the reader: counts bounded by the
// stream size before allocating, exactly 3 + n + m tokens as Ligra's
// reader requires, a row table starting at 0 and rising to m, in-range
// targets. A reader without the rule would allocate absurdly, index out
// of bounds, or silently drop edges; it must throw instead.
TEST(Io, AdjacencyRejectsCorruptCorpus) {
  using Tokens = std::vector<std::string>;
  std::stringstream written;
  io::write_adjacency(written, gen::figure3_example());
  Tokens pristine;
  for (std::string tok; written >> tok;) pristine.push_back(tok);
  // Layout: "AdjacencyGraph", n, m, n offsets, m targets.
  const std::size_t n = std::stoul(pristine[1]), m = std::stoul(pristine[2]);
  ASSERT_EQ(pristine.size(), 3 + n + m);
  const std::size_t kOffsets = 3, kTargets = 3 + n;

  struct Case {
    const char* name;
    std::function<void(Tokens&)> mutate;
  };
  const Case corpus[] = {
      {"absurd vertex count",  // a valid id range, but not for ~100 bytes
       [](Tokens& t) { t[1] = std::to_string(4'000'000'000); }},
      {"absurd edge count",
       [](Tokens& t) { t[2] = std::to_string(std::uint64_t{1} << 50); }},
      {"vertex count one low",
       [&](Tokens& t) { t[1] = std::to_string(n - 1); }},
      {"edge count one low",  // would drop the last edge
       [&](Tokens& t) { t[2] = std::to_string(m - 1); }},
      {"trailing token", [](Tokens& t) { t.push_back("0"); }},
      {"offsets not starting at zero",
       [&](Tokens& t) { t[kOffsets] = std::to_string(1); }},
      {"one decreasing pair",  // offsets[2] above offsets[3]
       [&](Tokens& t) {
         t[kOffsets + 2] = std::to_string(std::stoul(t[kOffsets + 3]) + 1);
       }},
      {"last offset past m",
       [&](Tokens& t) { t[kOffsets + n - 1] = std::to_string(m + 1); }},
      {"target equal to n",
       [&](Tokens& t) { t[kTargets] = std::to_string(n); }},
  };
  auto parse = [](const Tokens& t) {
    std::string text;
    for (const std::string& tok : t) text += tok + "\n";
    std::stringstream ss(text);
    return io::read_adjacency(ss);
  };
  for (const Case& c : corpus) {
    Tokens t = pristine;
    c.mutate(t);
    EXPECT_THROW(parse(t), Error) << c.name;
  }
  // The pristine tokens still parse: the failures are the mutations'.
  EXPECT_EQ(parse(pristine).out_csr(), gen::figure3_example().out_csr());
}

}  // namespace
}  // namespace vebo
