// Tests for the typed query protocol (algorithms/query.hpp): schema
// validation (types and Int ranges, directly and through a GraphService),
// canonical cache-key encoding, payload accessors and permutation
// translation, every spec's checksum fold against the serial oracles, and
// the serving layer's CacheKey / ResultCache (LRU) building blocks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "algorithms/bellman_ford.hpp"
#include "algorithms/reference.hpp"
#include "algorithms/registry.hpp"
#include "framework/engine.hpp"
#include "gen/rmat.hpp"
#include "graph/permute.hpp"
#include "graph_reference.hpp"
#include "order/vebo.hpp"
#include "serve/graph_service.hpp"
#include "serve/result_cache.hpp"
#include "serve/service_error.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/session.hpp"
#include "support/error.hpp"

namespace vebo {
namespace {

using algo::AlgorithmSpec;
using algo::ParamSchema;
using algo::ParamType;
using algo::PayloadKind;
using algo::QueryParams;
using algo::QueryPayload;
using algo::VertexScore;

// ------------------------------------------------------ schema validation

ParamSchema demo_schema() {
  return ParamSchema{
      {"iterations", ParamType::Int, std::int64_t{10}},
      {"damping", ParamType::Float, 0.85},
  };
}

TEST(QuerySchema, FillsDefaultsAndKeepsExplicitValues) {
  const QueryParams norm = demo_schema().validate(
      QueryParams().set("iterations", 3));
  EXPECT_EQ(norm.get_int("iterations"), 3);
  EXPECT_EQ(norm.get_float("damping"), 0.85);
  EXPECT_EQ(norm.size(), 2u);
}

TEST(QuerySchema, RejectsUnknownParams) {
  EXPECT_THROW(demo_schema().validate(QueryParams().set("dampng", 0.85)),
               Error);
  EXPECT_THROW(
      algo::spec("CC").params.validate(QueryParams().set("source", 0)),
      Error);  // CC takes no params at all
}

TEST(QuerySchema, RejectsIllTypedParamsButWidensIntToFloat) {
  // A float into an Int param is ill-typed (never silently truncated)...
  EXPECT_THROW(demo_schema().validate(QueryParams().set("iterations", 2.5)),
               Error);
  // ...but an int into a Float param widens exactly.
  const QueryParams norm =
      demo_schema().validate(QueryParams().set("damping", 1));
  EXPECT_EQ(norm.get_float("damping"), 1.0);
}

TEST(QuerySchema, TypedGettersThrowOnMissingOrMismatch) {
  QueryParams p;
  p.set("a", 3).set("b", 0.5).set("neg", -1);
  EXPECT_EQ(p.get_int("a"), 3);
  EXPECT_EQ(p.get_float("a"), 3.0);  // widening read is fine
  EXPECT_THROW(p.get_int("b"), Error);
  EXPECT_THROW(p.get_int("nope"), Error);
  EXPECT_EQ(p.get_vertex("a"), 3u);
  EXPECT_THROW(p.get_vertex("neg"), Error);
}

TEST(QuerySchema, SpecInvokeValidates) {
  const Graph g = gen::rmat(7, 4, 1);
  const Engine eng(g, SystemModel::Ligra);
  EXPECT_THROW(
      algo::spec("PR").invoke(eng, QueryParams().set("sources", 0)),
      Error);
  EXPECT_THROW(
      algo::spec("BFS").invoke(eng, QueryParams().set("source", 0.5)),
      Error);
  // Valid params run; out-of-range top_k values are rejected by the
  // schema.
  EXPECT_THROW(
      algo::spec("PR").invoke(eng, QueryParams().set("top_k", -1)), Error);
  EXPECT_EQ(algo::spec("BFS").invoke(eng).kind(), PayloadKind::VertexIds);
}

// Int params carry their valid range: counts an algorithm loops over as
// an int lie in [0, INT_MAX], top_k is >= 0. A value outside is the
// client's error, rejected before any work runs — never narrowed into a
// different valid count, never an Internal failure inside the run.
TEST(QuerySchema, IntParamsOutsideTheirRangeAreRejected) {
  constexpr std::int64_t kTwo31 = std::int64_t{1} << 31;
  constexpr std::int64_t kTwo32Plus3 = (std::int64_t{1} << 32) + 3;
  const struct {
    const char* code;
    const char* param;
    std::int64_t value;
  } bad[] = {
      {"PR", "iterations", -1},
      {"PR", "iterations", kTwo31},
      {"PR", "iterations", kTwo32Plus3},
      {"PRD", "max_iters", kTwo32Plus3},
      {"BP", "iterations", -1},
      {"BC", "top_k", -1},
  };

  const Graph g = gen::rmat(7, 4, 1);
  const Engine eng(g, SystemModel::Ligra);
  for (const auto& b : bad) {
    SCOPED_TRACE(std::string(b.code) + " " + b.param + "=" +
                 std::to_string(b.value));
    EXPECT_THROW(
        algo::spec(b.code).invoke(eng, QueryParams().set(b.param, b.value)),
        Error);
  }
  // The range ends themselves are valid.
  EXPECT_NO_THROW(algo::spec("PR").params.validate(
      QueryParams().set("iterations", kTwo31 - 1)));
  EXPECT_NO_THROW(
      algo::spec("PR").invoke(eng, QueryParams().set("iterations", 0)));

  serve::SnapshotStore store;
  serve::GraphServiceOptions opts;
  opts.workers = 1;
  serve::GraphService service(store, opts);
  stream::StreamSession session(g);
  service.publish_session(session);
  for (const auto& b : bad) {
    SCOPED_TRACE(std::string(b.code) + " " + b.param + "=" +
                 std::to_string(b.value));
    serve::Query q(b.code);
    q.params.set(b.param, b.value);
    try {
      service.query(q);
      ADD_FAILURE() << "expected ServiceError";
    } catch (const serve::ServiceError& e) {
      EXPECT_EQ(e.code(), serve::ErrorCode::BadRequest);
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.errors(serve::ErrorCode::BadRequest), std::size(bad));
  EXPECT_EQ(stats.errors(serve::ErrorCode::Internal), 0u);
}

// ------------------------------------------------- canonical cache keys

TEST(CanonicalKey, IndependentOfParamOrderSpellingAndDefaults) {
  const ParamSchema s = demo_schema();
  const std::string a = algo::canonical_query_key(
      "PR", s.validate(QueryParams().set("iterations", 10).set("damping",
                                         0.85)));
  const std::string b = algo::canonical_query_key(
      "PR", s.validate(QueryParams().set("damping", 0.85).set("iterations",
                                         10)));
  const std::string c =
      algo::canonical_query_key("PR", s.validate(QueryParams()));
  EXPECT_EQ(a, b);  // order
  EXPECT_EQ(a, c);  // default-fill
  // Float spelling: an int 1 widened into a Float param encodes exactly
  // like the double 1.0.
  EXPECT_EQ(
      algo::canonical_query_key("PR",
                                s.validate(QueryParams().set("damping", 1))),
      algo::canonical_query_key(
          "PR", s.validate(QueryParams().set("damping", 1.0))));
}

TEST(CanonicalKey, DistinctSemanticsNeverCollide) {
  // Exhaustive-ish: distinct (code, params) pairs must all encode
  // differently, including floats that print identically at default
  // precision ("0.1" vs nextafter) and int-vs-float type punning.
  std::set<std::string> keys;
  const ParamSchema s = demo_schema();
  const double d1 = 0.1;
  const double d2 = std::nextafter(0.1, 1.0);
  for (const std::string code : {"PR", "PRX"})
    for (std::int64_t it : {0, 1, 2, 10})
      for (double damping : {0.0, 0.5, d1, d2, 1.0})
        keys.insert(algo::canonical_query_key(
            code, s.validate(QueryParams()
                                 .set("iterations", it)
                                 .set("damping", damping))));
  EXPECT_EQ(keys.size(), 2u * 4u * 5u);

  // Same numeric value, different type: tagged apart.
  EXPECT_NE(algo::canonical_query_key("X", QueryParams().set("k", 1)),
            algo::canonical_query_key("X", QueryParams().set("k", 1.0)));
}

TEST(CanonicalKey, CacheKeyHashAgreesWithEquality) {
  const ParamSchema s = demo_schema();
  const serve::CacheKey a =
      serve::CacheKey::make("PR", s.validate(QueryParams()));
  const serve::CacheKey b = serve::CacheKey::make(
      "PR", s.validate(QueryParams().set("damping", 0.85)));
  const serve::CacheKey c = serve::CacheKey::make(
      "PR", s.validate(QueryParams().set("damping", 0.5)));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_FALSE(a == c);
}

// --------------------------------------------------------- ResultCache

serve::CacheKey key_of(int i) {
  std::string code = "K";
  code += std::to_string(i);
  return serve::CacheKey::make(code, QueryParams());
}

TEST(ResultCache, LruEvictsOldestNotEverything) {
  serve::ResultCache cache(2);
  cache.insert(key_of(1), {1.0, nullptr, "", {}});
  cache.insert(key_of(2), {2.0, nullptr, "", {}});
  ASSERT_NE(cache.find(key_of(1)), nullptr);  // bumps 1 over 2
  cache.insert(key_of(3), {3.0, nullptr, "", {}});    // evicts 2, not the world
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(key_of(2)), nullptr);
  ASSERT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_EQ(cache.find(key_of(1))->checksum, 1.0);
  ASSERT_NE(cache.find(key_of(3)), nullptr);

  // Refreshing an existing key is not an eviction.
  cache.insert(key_of(3), {3.5, nullptr, "", {}});
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(key_of(3))->checksum, 3.5);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 1u);  // wipes are not evictions
}

// The read mark refresh-on-publish keys on: a hit sets it, contains()
// leaves it alone, and drain() hands every entry out in LRU -> MRU order
// (the order a refresh reinserts in) and leaves the cache empty.
TEST(ResultCache, HitsMarkReadAndDrainKeepsRecencyOrder) {
  serve::ResultCache cache(4);
  cache.insert(key_of(1), {1.0, nullptr, "", {}});
  cache.insert(key_of(2), {2.0, nullptr, "", {}});
  cache.insert(key_of(3), {3.0, nullptr, "", {}});
  EXPECT_TRUE(cache.contains(key_of(1)));
  EXPECT_FALSE(cache.contains(key_of(4)));
  ASSERT_NE(cache.find(key_of(1)), nullptr);  // 1 becomes MRU, read
  const auto drained = cache.drain();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].second.checksum, 2.0);
  EXPECT_EQ(drained[1].second.checksum, 3.0);
  EXPECT_EQ(drained[2].second.checksum, 1.0);
  EXPECT_FALSE(drained[0].second.read);
  EXPECT_FALSE(drained[1].second.read);
  EXPECT_TRUE(drained[2].second.read);
}

// ----------------------------------------------------- payload mechanics

TEST(QueryPayload, AccessorsThrowOnKindMismatch) {
  const QueryPayload v = QueryPayload::vertex_doubles({1.0, 2.0});
  EXPECT_EQ(v.kind(), PayloadKind::VertexDoubles);
  EXPECT_EQ(v.num_entries(), 2u);
  EXPECT_THROW(v.ids(), Error);
  EXPECT_THROW(v.top(), Error);

  const QueryPayload empty;
  EXPECT_EQ(empty.kind(), PayloadKind::VertexDoubles);
  EXPECT_EQ(empty.num_entries(), 0u);
}

TEST(QueryPayload, TopKOfIsDeterministicWithTieBreak) {
  const std::vector<double> scores = {0.5, 2.0, 0.5, 3.0, 2.0};
  const auto top = algo::top_k_of(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], (VertexScore{3, 3.0}));
  EXPECT_EQ(top[1], (VertexScore{1, 2.0}));  // vertex-id tie-break
  EXPECT_EQ(top[2], (VertexScore{4, 2.0}));
  // k > n degrades to a full ranking.
  EXPECT_EQ(algo::top_k_of(scores, 99).size(), scores.size());
}

TEST(QueryPayload, TranslationReindexesAndMapsIdValues) {
  // perm: original v -> position. original {0,1,2,3} -> positions
  // {2,0,3,1}.
  const Permutation perm = {2, 0, 3, 1};
  const QueryPayload doubles =
      QueryPayload::vertex_doubles({10.0, 11.0, 12.0, 13.0});
  const QueryPayload t = translate_to_original_ids(doubles, perm);
  EXPECT_EQ(t.doubles(), (std::vector<double>{12.0, 10.0, 13.0, 11.0}));

  // Levels (counts) reindex without value mapping.
  const QueryPayload lv = QueryPayload::vertex_ids({7, 8, 9, kInvalidVertex});
  EXPECT_EQ(translate_to_original_ids(lv, perm).ids(),
            (std::vector<VertexId>{9, 7, kInvalidVertex, 8}));

  // Id-valued vectors (CC labels) map values through the inverse too:
  // snapshot position p -> original id inv[p].
  const QueryPayload labels = QueryPayload::vertex_ids(
      {0, 0, 3, kInvalidVertex}, /*values_are_vertex_ids=*/true);
  const QueryPayload lt = translate_to_original_ids(labels, perm);
  // inv = {1, 3, 0, 2}; value 0 -> 1, value 3 -> 2.
  EXPECT_EQ(lt.ids(), (std::vector<VertexId>{2, 1, kInvalidVertex, 1}));
  EXPECT_TRUE(lt.values_are_vertex_ids());

  // Top-k vertices map through the inverse.
  const QueryPayload tk = QueryPayload::top_k({{2, 9.0}, {0, 5.0}});
  const QueryPayload tkt = translate_to_original_ids(tk, perm);
  EXPECT_EQ(tkt.top()[0], (VertexScore{0, 9.0}));
  EXPECT_EQ(tkt.top()[1], (VertexScore{1, 5.0}));

  // Size mismatches are caught, not silently misindexed, and so is an
  // id value that names no vertex.
  EXPECT_THROW(
      translate_to_original_ids(QueryPayload::vertex_doubles({1.0}), perm),
      Error);
  EXPECT_THROW(translate_to_original_ids(
                   QueryPayload::vertex_ids({0, 0, 4, 0},
                                            /*values_are_vertex_ids=*/true),
                   perm),
               Error);

  // Under the inverse permutation the map runs the other way (the
  // refresh path's warm start), so the round trip is the identity.
  const Permutation inv = invert(perm);
  for (const QueryPayload& p : {doubles, lv, labels, tk})
    EXPECT_TRUE(translate_to_original_ids(translate_to_original_ids(p, perm),
                                          inv) == p);
}

// --------------------------------- checksum folds vs the serial oracles

// Each spec's checksum fold is its algorithm's one scalar answer. Pin it
// to the serial oracles of algorithms/reference.hpp, and BP's beliefs to
// the serial oracle of graph_reference.hpp, on every model at pool
// widths 1 and 4 (width 1 runs BF's bucket pass, width 4 its edge_map
// rounds). PRD has no serial oracle yet.
TEST(ChecksumFolds, MatchTheSerialOracles) {
  const Graph g = gen::rmat(9, 6, 4);
  const VertexId n = g.num_vertices();
  const auto finite = [](const auto& values, auto unreached) {
    double count = 0;
    for (const auto x : values) count += x != unreached;
    return count;
  };
  double wcc = 0;
  const std::vector<VertexId> labels = algo::ref::wcc_labels(g);
  for (VertexId v = 0; v < n; ++v) wcc += labels[v] == v;
  const std::vector<double> x(n, 1.0 / static_cast<double>(n));
  const double spmv = algo::block_sum(
      QueryPayload::vertex_doubles(algo::ref::spmv(g, x)));
  const double mass = algo::block_sum(
      QueryPayload::vertex_doubles(algo::ref::pagerank(g, 10)));
  const std::vector<double> beliefs = oracle::reference_bp(g, 10);
  const double bp = algo::block_sum(QueryPayload::vertex_doubles(beliefs));

  ThreadPool one(1), four(4);
  for (ThreadPool* pool : {&one, &four}) {
    for (SystemModel m : {SystemModel::Ligra, SystemModel::Polymer,
                          SystemModel::GraphGrind}) {
      SCOPED_TRACE(to_string(m) + " x" + std::to_string(pool->num_threads()));
      const Engine eng(g, m, {.pool = pool});
      const auto checksum = [&](const char* code, const QueryParams& p = {}) {
        const AlgorithmSpec& s = algo::spec(code);
        return s.checksum(s.invoke(eng, p));
      };
      // Vertex 0 has no out-edges; source 7 reaches most of the graph.
      for (VertexId src : {VertexId{0}, VertexId{7}}) {
        SCOPED_TRACE(src);
        const QueryParams from = QueryParams().set("source", src);
        EXPECT_EQ(checksum("BFS", from),
                  finite(algo::ref::bfs_levels(g, src), kInvalidVertex));
        EXPECT_EQ(checksum("BF", from),
                  finite(algo::ref::dijkstra(g, src), algo::kUnreachable));
        double dependency = 0;
        for (double d : algo::ref::brandes_dependency(g, src)) dependency += d;
        EXPECT_NEAR(checksum("BC", from), dependency, 1e-9 * dependency);
      }
      EXPECT_EQ(checksum("CC"), wcc);
      EXPECT_NEAR(checksum("PR"), mass, 1e-12 * mass);  // the total mass
      EXPECT_EQ(checksum("SPMV"), spmv);
      const AlgorithmSpec& bp_spec = algo::spec("BP");
      const QueryPayload bp_payload = bp_spec.invoke(eng);
      EXPECT_TRUE(oracle::same_bytes(bp_payload.doubles(), beliefs));
      EXPECT_EQ(bp_spec.checksum(bp_payload), bp);
    }
  }
  EXPECT_GT(finite(algo::ref::bfs_levels(g, 7), kInvalidVertex), n / 2);
}

// -------------------------- permutation round-trip (quickstart workflow)

// The quickstart pipeline: rmat graph -> VEBO -> permute -> engine. A
// payload computed on the reordered graph and translated back must agree
// with the same algorithm on the original-order graph. (Restricted to
// the structural algorithms — SPMV/BF/BP derive weights/priors from
// vertex ids, so their answers are ordering-dependent by construction.)
TEST(PayloadTranslation, RoundTripsThroughVeboReordering) {
  const Graph g = gen::rmat(10, 8, 3);
  const order::VeboResult r = order::vebo(g, 8);
  const Graph h = permute(g, r.perm);
  const Engine orig(g, SystemModel::Polymer);
  EngineOptions eo;
  eo.explicit_partitioning = &r.partitioning;
  const Engine reord(h, SystemModel::Polymer, eo);
  const VertexId src = 5;

  {  // BFS levels: exact structural equality.
    const auto& s = algo::spec("BFS");
    const QueryPayload want =
        s.invoke(orig, QueryParams().set("source", src));
    const QueryPayload got = translate_to_original_ids(
        s.invoke(reord, QueryParams().set("source", r.perm[src])), r.perm);
    EXPECT_EQ(got.ids(), want.ids());
  }
  {  // CC: identical component structure; translated labels are valid
     // original-id members of their own component.
    const auto& s = algo::spec("CC");
    const QueryPayload want = s.invoke(orig);
    const QueryPayload got =
        translate_to_original_ids(s.invoke(reord), r.perm);
    const auto& wl = want.ids();
    const auto& gl = got.ids();
    ASSERT_EQ(gl.size(), wl.size());
    for (VertexId v = 0; v < gl.size(); ++v) {
      ASSERT_LT(gl[v], gl.size());
      // got's label names a vertex in the same want-component as v...
      EXPECT_EQ(wl[gl[v]], wl[v]);
      // ...and labels partition identically (same label <=> same comp).
      EXPECT_EQ(gl[v], gl[wl[v]]);
    }
  }
  {  // PR: ranks match per original vertex (order-of-summation noise
     // only), and the translated top-k is consistent with the full
     // translated vector.
    const auto& s = algo::spec("PR");
    const QueryPayload want = s.invoke(orig);
    const QueryPayload got =
        translate_to_original_ids(s.invoke(reord), r.perm);
    ASSERT_EQ(got.doubles().size(), want.doubles().size());
    for (std::size_t v = 0; v < want.doubles().size(); ++v)
      EXPECT_NEAR(got.doubles()[v], want.doubles()[v], 1e-12);

    const QueryPayload topk = translate_to_original_ids(
        s.invoke(reord, QueryParams().set("top_k", 5)), r.perm);
    ASSERT_EQ(topk.top().size(), 5u);
    double prev = std::numeric_limits<double>::infinity();
    for (const VertexScore& e : topk.top()) {
      EXPECT_EQ(e.score, got.doubles()[e.vertex]);
      EXPECT_LE(e.score, prev);
      prev = e.score;
    }
  }
  {  // BC: dependencies are structural too.
    const auto& s = algo::spec("BC");
    const QueryPayload want =
        s.invoke(orig, QueryParams().set("source", src));
    const QueryPayload got = translate_to_original_ids(
        s.invoke(reord, QueryParams().set("source", r.perm[src])), r.perm);
    ASSERT_EQ(got.doubles().size(), want.doubles().size());
    for (std::size_t v = 0; v < want.doubles().size(); ++v)
      EXPECT_NEAR(got.doubles()[v], want.doubles()[v], 1e-9);
  }
}

}  // namespace
}  // namespace vebo
