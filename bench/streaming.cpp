// Streaming benchmark: batched edge updates through StreamSession vs. the
// static alternative (rebuild-from-scratch + full VEBO).
//
// For each dataset (rmat / powerlaw stand-ins) the final edge set is
// split: 80% seeds the graph, 20% streams in as insert batches (spiced
// with ~10% deletions of seeded edges) at >=3 batch-size op points. Per
// op point we measure
//   * streaming: StreamSession::apply — DeltaGraph batch-apply plus the
//     maintainer's drift check, which re-runs VEBO in full once the
//     partitions drift past its bound (`rebalances` counts those runs),
//   * rebuild: Graph::from_edges over the accumulated edge set plus a
//     full order::vebo run (what a static pipeline must redo per batch),
// and the first-query / steady-query latency on both paths. Each op point
// runs kRuns times, and every timed value lands in BENCH_streaming.json
// (bench::Record) as {median, min, max, n} over the runs; the headline op
// point is the smallest batch size on rmat, whose acceptance floor is 5x
// on the ratio of the medians. At the default scale only the powerlaw
// points rebalance: the rmat points, the headline included, time
// ingestion and the drift check alone.
//
// Knobs: VEBO_STREAM_SCALE (dataset scale, default bench_scale()),
// VEBO_STREAM_REBUILD_BATCHES (rebuild timings per op point, default 3).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "algorithms/registry.hpp"
#include "order/vebo.hpp"
#include "serve/graph_service.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/session.hpp"
#include "support/prng.hpp"

using namespace vebo;
using stream::EdgeUpdate;

namespace {

/// One op point: the counts are the same in every run, and each timed
/// value holds one sample per run.
struct Point {
  std::size_t batch_size = 0;
  std::size_t batches = 0;
  std::size_t updates = 0;
  std::uint64_t rebalances = 0;  ///< full VEBO runs during the stream
  std::vector<double> stream_ms_per_batch, rebuild_ms_per_batch,
      stream_updates_per_s;
  std::vector<double> stream_first_query_ms;   ///< includes snapshot + reorder
  std::vector<double> stream_steady_query_ms;  ///< cached snapshot
  std::vector<double> rebuild_query_ms;
};

/// Refresh-on-publish steady state (PR 10): per-algorithm mean hook time
/// across refreshing publishes vs a full from-scratch recompute on the
/// same version, one sample per run of the section.
struct IncrAlgo {
  std::string code;
  std::vector<double> refresh_ms, recompute_ms;
};

struct IncrSection {
  std::size_t batch_size = 0;
  std::vector<double> first_query_ms;  ///< first query after a publish
  std::vector<IncrAlgo> algos;
};

/// Runs of each op point and of the incremental section per dataset.
/// One run's values swing by up to 2x with host load, so each timed value
/// is written as the median of the runs with their min and max.
constexpr int kRuns = 5;

/// The median of `xs`.
double median(const std::vector<double>& xs) { return summarize(xs).median; }

// Times one run of an op point and appends one sample per timed value to
// `p`; every run replays the same seed graph and update stream.
void run_point(const Graph& full, std::size_t batch_size,
               int rebuild_batches, Point& p) {
  const std::vector<Edge> all = bench::edges_of(full);
  const std::size_t seed_count = all.size() * 8 / 10;

  // Seed graph: first 80% of the edge list (deduped by from_edges? no —
  // the generators may emit duplicates; DeltaGraph dedups, so build the
  // seed from the deduped prefix for a like-for-like comparison).
  std::vector<Edge> seed_edges(all.begin(),
                               all.begin() + static_cast<std::ptrdiff_t>(
                                                 seed_count));
  EdgeList seed_el(full.num_vertices(), seed_edges, full.directed());
  seed_el.remove_duplicates();
  // An undirected COO prefix drops mirrors of edges near the cut;
  // re-symmetrize so the seed satisfies the invariant DeltaGraph
  // documents for undirected bases.
  if (!full.directed()) seed_el.symmetrize();
  const Graph seed = Graph::from_edges(seed_el);

  // Update stream: remaining 20% as inserts + ~10% deletions of seeded
  // edges, chopped into batches.
  Xoshiro256 rng(1717);
  std::vector<EdgeUpdate> updates;
  for (std::size_t i = seed_count; i < all.size(); ++i) {
    updates.push_back(EdgeUpdate::insert(all[i].src, all[i].dst));
    if (rng.next_below(10) == 0) {
      const Edge& e = seed_edges[rng.next_below(seed_edges.size())];
      updates.push_back(EdgeUpdate::remove(e.src, e.dst));
    }
  }
  const std::size_t bsz = std::min(batch_size, updates.size());
  const std::size_t nbatches = (updates.size() + bsz - 1) / bsz;

  // ---- streaming path: batch-apply + the drift check. The bound is tight
  // (1% of m/P); the powerlaw stream crosses it and re-runs VEBO, the
  // rmat stream does not.
  stream::SessionOptions sopts;
  sopts.rebalance.edge_drift = 0.01;
  stream::StreamSession session(seed, sopts);
  Timer stream_t;
  for (std::size_t b = 0; b < nbatches; ++b) {
    const std::size_t lo = b * bsz;
    const std::size_t hi = std::min(lo + bsz, updates.size());
    session.apply(std::span<const EdgeUpdate>(updates.data() + lo, hi - lo));
  }
  const double stream_total_ms = stream_t.elapsed_ms();
  const double stream_ms_per_batch =
      stream_total_ms / static_cast<double>(nbatches);
  p.stream_ms_per_batch.push_back(stream_ms_per_batch);
  p.stream_updates_per_s.push_back(
      stream_total_ms > 0
          ? static_cast<double>(updates.size()) / (stream_total_ms / 1e3)
          : 0);

  // The counts do not depend on timing: every run must reproduce the
  // first run's.
  const std::uint64_t rebalances = session.maintainer().stats().full;
  if (p.stream_ms_per_batch.size() == 1) {
    p.batch_size = bsz;
    p.batches = nbatches;
    p.updates = updates.size();
    p.rebalances = rebalances;
  }
  VEBO_CHECK(p.batch_size == bsz && p.batches == nbatches &&
                 p.updates == updates.size() &&
                 p.rebalances == rebalances,
             "bench_streaming: op-point counts differ between runs");

  Timer fq;
  session.query("PR");
  p.stream_first_query_ms.push_back(fq.elapsed_ms());
  p.stream_steady_query_ms.push_back(
      bench::sample_ms([&] { session.query("PR"); }, 3).median);

  // ---- rebuild path: from_edges + full VEBO per batch (timed on the
  // first `rebuild_batches` batches; the cost is flat in the batch index
  // to first order, dominated by |E|). The live edge set is resolved
  // outside the timer — in update order with the same undirected
  // mirroring DeltaGraph applies, so both paths query the same graph —
  // and only the work a static pipeline must redo (flatten + from_edges
  // + full VEBO + reorder) is measured.
  std::set<std::pair<VertexId, VertexId>> live;
  seed.for_each_edge([&](VertexId u, VertexId v) { live.insert({u, v}); });
  const auto apply_to_live = [&](const EdgeUpdate& u) {
    for (int side = 0; side < (full.directed() ? 1 : 2); ++side) {
      const std::pair<VertexId, VertexId> e =
          side == 0 ? std::pair{u.src, u.dst} : std::pair{u.dst, u.src};
      if (u.kind == stream::UpdateKind::Insert)
        live.insert(e);
      else
        live.erase(e);
    }
  };
  const auto rebuild_from_live = [&] {
    std::vector<Edge> edges;
    edges.reserve(live.size());
    for (const auto& [s, d] : live) edges.push_back({s, d});
    Graph g = Graph::from_edges(
        EdgeList(full.num_vertices(), std::move(edges), full.directed()));
    return permute(g, order::vebo(g, 4).perm);
  };

  const int measured = std::min<std::size_t>(rebuild_batches, nbatches);
  std::vector<double> rebuild_ms;
  for (int b = 0; b < measured; ++b) {
    const std::size_t lo = static_cast<std::size_t>(b) * bsz;
    const std::size_t hi = std::min(lo + bsz, updates.size());
    for (std::size_t i = lo; i < hi; ++i) apply_to_live(updates[i]);
    Timer t;
    Graph g = rebuild_from_live();
    rebuild_ms.push_back(t.elapsed_ms());
  }
  p.rebuild_ms_per_batch.push_back(median(rebuild_ms));

  // Query comparison must run on the final graph on both sides: apply the
  // unmeasured tail of the stream and rebuild once more (untimed).
  for (std::size_t i = static_cast<std::size_t>(measured) * bsz;
       i < updates.size(); ++i)
    apply_to_live(updates[i]);
  const Graph rebuilt = rebuild_from_live();

  Engine reb_eng(rebuilt, SystemModel::Polymer);
  const algo::AlgorithmSpec& pr = algo::spec("PR");
  p.rebuild_query_ms.push_back(
      bench::sample_ms([&] { pr.checksum(pr.invoke(reb_eng)); }, 3).median);
}

// The PR 10 measurement: a service in refresh_on_publish mode over a
// steady-state session — every publish carries a `batch_size` net delta
// and in-place-refreshes the cached {PR, PRD, CC, BFS, BF} payloads,
// each read after every publish so the next one refreshes it.
// refresh_ms comes from the service's own per-algo hook accounting (it
// includes both payload translations, like the recompute side includes
// its translation), recompute_ms from a timed from-scratch query_typed
// on the same version. Also measures the first-query-after-publish
// engine-rebind spike. Each call replays the same updates and appends one
// sample per value to `sec`.
void run_incremental(const Graph& full, std::size_t batch_size,
                     IncrSection& sec) {
  EdgeList el(full.num_vertices(), bench::edges_of(full), full.directed());
  el.remove_duplicates();
  const Graph seed = Graph::from_edges(el);
  const VertexId n = seed.num_vertices();

  Xoshiro256 rng(2024);
  auto make_batch = [&](std::size_t count) {
    std::vector<EdgeUpdate> b;
    b.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto s = static_cast<VertexId>(rng.next_below(n));
      const auto d = static_cast<VertexId>(rng.next_below(n));
      b.push_back(rng.next_below(8) == 0 ? EdgeUpdate::remove(s, d)
                                         : EdgeUpdate::insert(s, d));
    }
    return b;
  };

  sec.batch_size = batch_size;

  // Operating points. PR's refresh must reproduce a fixed-iteration run,
  // so its recompute side gets enough iterations to be converged (120) —
  // comparing a converged refresh against a handful of unconverged power
  // iterations would be apples-to-oranges. PRD is compared at a
  // serving-grade epsilon (tighter than its 1e-2 schema default); both
  // sides use identical drop-below-threshold semantics, so the refresh's
  // locality advantage is measured at equal result quality.
  const std::vector<std::pair<std::string, algo::QueryParams>> cases = {
      {"PR", algo::QueryParams().set("iterations", 120)},
      {"PRD",
       algo::QueryParams().set("max_iters", 100).set("epsilon", 1e-4)},
      {"CC", algo::QueryParams()},
      {"BFS", algo::QueryParams().set("source", 0)},
      {"BF", algo::QueryParams().set("source", 0)},
  };

  {
    stream::StreamSession session(seed);
    serve::SnapshotStore store;
    serve::GraphServiceOptions o;
    o.workers = 1;
    o.engine.model = SystemModel::Polymer;
    o.refresh_on_publish = true;
    o.refresh_max_delta_fraction = 1.0;  // measure the refresh path itself
    serve::GraphService service(store, o);
    service.publish_session(session);
    // A publish refreshes only the entries read since the previous one,
    // so every key is read after each publish, as a dashboard would.
    const auto read_all = [&] {
      for (const auto& [code, params] : cases) {
        serve::Query q(code);
        q.params = params;
        q.result = serve::ResultKind::Payload;
        (void)service.query(q);
      }
    };
    read_all();
    constexpr int kRounds = 3;
    for (int r = 0; r < kRounds; ++r) {
      session.apply(make_batch(batch_size));
      service.publish_session(session);
      read_all();
    }
    sec.algos.resize(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto& [code, params] = cases[i];
      IncrAlgo& a = sec.algos[i];
      a.code = code;
      double refresh_ms = 0;
      for (const auto& rl : service.refresh_latency())
        if (rl.algo == code && rl.count > 0)
          refresh_ms = rl.total_ms / static_cast<double>(rl.count);
      a.refresh_ms.push_back(refresh_ms);
      a.recompute_ms.push_back(
          bench::sample_ms([&] { (void)session.query_typed(code, params); },
                           3)
              .median);
    }
  }

  // First-query-after-publish: cache off so the measured query is the
  // engine rebind plus one PR run.
  {
    stream::StreamSession session(seed);
    serve::SnapshotStore store;
    serve::GraphServiceOptions o;
    o.workers = 1;
    o.cache_capacity = 0;  // uncached
    o.engine.model = SystemModel::Polymer;
    serve::GraphService service(store, o);
    service.publish_session(session);
    (void)service.query({"PR", 0});  // create the pool's engine once
    for (int r = 0; r < 5; ++r) {
      session.apply(make_batch(std::min<std::size_t>(batch_size, 1000)));
      service.publish_session(session);
      Timer t;
      (void)service.query({"PR", 0});
      sec.first_query_ms.push_back(t.elapsed_ms());
    }
  }
}

}  // namespace

int main() {
  bench::Record rec("streaming");
  const double scale = rec.knob("VEBO_STREAM_SCALE", bench::bench_scale());
  const int rebuild_batches = rec.knob("VEBO_STREAM_REBUILD_BATCHES", 3);
  rec.lock_settings();
  const std::vector<std::size_t> batch_sizes = {1000, 10000, 100000};

  bench::print_header("streaming: batch-apply + drift-checked VEBO vs "
                      "rebuild + full VEBO",
                      scale, "VEBO_STREAM_SCALE");

  std::vector<bench::Fields> graphs;
  for (const std::string& name : {std::string("rmat27"),
                                  std::string("powerlaw")}) {
    const Graph full = gen::make_dataset(name, scale, /*seed=*/42);
    std::cout << "\n" << full.describe(name) << "\n";
    std::vector<Point> points;
    std::vector<bench::Fields> point_fields;
    for (std::size_t bsz : batch_sizes) {
      // Batch sizes beyond the stream length clamp to the same effective
      // size; skip duplicates instead of re-measuring an identical point
      // (the update-stream length is fixed per dataset).
      if (!points.empty() &&
          std::min<std::size_t>(bsz, points.back().updates) ==
              points.back().batch_size)
        continue;
      Point p;
      for (int r = 0; r < kRuns; ++r) run_point(full, bsz, rebuild_batches, p);
      const double speedup = bench::ratio(median(p.rebuild_ms_per_batch),
                                          median(p.stream_ms_per_batch));
      std::cout << "  batch=" << p.batch_size << " (" << p.batches
                << " batches, medians of " << kRuns << " runs): stream="
                << median(p.stream_ms_per_batch) << "ms/batch ("
                << median(p.stream_updates_per_s) / 1e6
                << "M upd/s), rebuild=" << median(p.rebuild_ms_per_batch)
                << "ms/batch, speedup=" << speedup
                << "x, query stream/rebuild="
                << median(p.stream_steady_query_ms) << "/"
                << median(p.rebuild_query_ms)
                << "ms, rebalances=" << p.rebalances << std::endl;
      point_fields.push_back(
          bench::Fields()
              .set("batch_size", p.batch_size)
              .set("batches", p.batches)
              .set("updates", p.updates)
              .set("stream_ms_per_batch", summarize(p.stream_ms_per_batch))
              .set("rebuild_ms_per_batch", summarize(p.rebuild_ms_per_batch))
              .set("speedup", speedup)
              .set("stream_updates_per_s", summarize(p.stream_updates_per_s))
              .set("stream_first_query_ms",
                   summarize(p.stream_first_query_ms))
              .set("stream_steady_query_ms",
                   summarize(p.stream_steady_query_ms))
              .set("rebuild_query_ms", summarize(p.rebuild_query_ms))
              .set("rebalances", p.rebalances));
      points.push_back(std::move(p));
    }
    // Refresh-on-publish steady state at the smallest batch size.
    IncrSection inc;
    for (int r = 0; r < kRuns; ++r) run_incremental(full, batch_sizes[0], inc);
    std::cout << "  refresh-on-publish (batch=" << inc.batch_size
              << ", medians of " << kRuns << " runs):";
    std::vector<bench::Fields> algos;
    std::map<std::string, double> refresh_speedup;
    for (const IncrAlgo& a : inc.algos) {
      const double speedup =
          bench::ratio(median(a.recompute_ms), median(a.refresh_ms));
      std::cout << " " << a.code << " " << median(a.refresh_ms) << "/"
                << median(a.recompute_ms) << "ms (" << speedup << "x)";
      algos.push_back(bench::Fields()
                          .set("algo", a.code)
                          .set("refresh_ms", summarize(a.refresh_ms))
                          .set("recompute_ms", summarize(a.recompute_ms))
                          .set("speedup", speedup));
      refresh_speedup[a.code] = speedup;
    }
    std::cout << "\n  first query after publish: "
              << median(inc.first_query_ms) << "ms" << std::endl;
    graphs.push_back(
        bench::Fields()
            .set("name", name)
            .set("n", full.num_vertices())
            .set("m", full.num_edges())
            .set("points", point_fields)
            .set("incremental",
                 bench::Fields()
                     .set("batch_size", inc.batch_size)
                     .set("first_query_after_publish_ms",
                          summarize(inc.first_query_ms))
                     .set("algos", algos)));
    // Headline: the smallest batch size on the first (rmat) dataset.
    if (graphs.size() == 1)
      rec.op_point(bench::Fields(point_fields.front())
                       .set("graph", name)
                       .set("prd_refresh_speedup", refresh_speedup["PRD"])
                       .set("cc_refresh_speedup", refresh_speedup["CC"]));
  }
  rec.set("graphs", graphs);
  rec.write();
  return 0;
}
