// Serving benchmark: concurrent query throughput and tail latency through
// serve::GraphService vs. the serialized one-query-at-a-time baseline
// (StreamSession::query) — the ISSUE-3 acceptance numbers.
//
// Setup mirrors the streaming bench: an rmat dataset is split 80/20 into
// a seed graph and an update stream. Three traffic shapes are measured at
// 1/2/4/8 closed-loop clients:
//   * hot:  clients draw from a small pool of (algo, source) combinations
//           — the many-users-same-queries shape the result cache exists
//           for (the serialized baseline has no cache and recomputes);
//   * cold: every query is a distinct (algo, source) pair, so the cache
//           never hits and the ratio isolates pure scheduling overhead;
//   * hot+writer: the 8-client hot workload while a writer thread applies
//           update batches and publishes a new epoch after each one
//           (cache invalidated on every publish). A sampler thread
//           measures SnapshotStore::acquire latency during the churn —
//           the "readers are never blocked by a publish" check.
// A fourth section isolates the typed-protocol cost: the same PR query
// answered as a checksum scalar vs. a full per-vertex payload vs. a
// top-k list, hot (cached — payload handout is a shared_ptr copy) and
// cold (per-miss payload translation included).
// Everything lands in BENCH_serving.json; the headline op point is the
// 8-client hot ratio over the serialized baseline.
//
// Knobs: VEBO_SERVE_SCALE (dataset scale, default bench_scale()),
// VEBO_SERVE_QUERIES (queries per measurement, default 400),
// VEBO_SERVE_BATCH (writer batch size, default 1024).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/graph_service.hpp"
#include "stream/session.hpp"
#include "support/prng.hpp"

using namespace vebo;
using serve::GraphService;
using serve::GraphServiceOptions;
using serve::Query;
using serve::SnapshotStore;
using stream::EdgeUpdate;
using stream::StreamSession;

namespace {

struct Point {
  std::size_t clients = 0;
  std::size_t queries = 0;
  double qps = 0;
  double ratio = 0;  ///< qps / serialized baseline qps (same workload)
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double cache_hit_rate = 0;
  std::uint64_t engines = 0;
};

struct WriterSide {
  std::uint64_t publishes = 0;
  double publish_ms_mean = 0;
  std::uint64_t acquires_sampled = 0;
  double acquire_us_max = 0;  ///< reader-side worst case during churn
};

std::vector<Query> make_workload(const std::string& kind, std::size_t count,
                                 VertexId n) {
  // Three algorithms with distinct cost/frontier shapes (Table II).
  static const std::vector<std::string> algos = {"BFS", "CC", "PR"};
  std::vector<Query> w;
  w.reserve(count);
  Xoshiro256 rng(99);
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.algo = algos[i % algos.size()];
    // hot: 8 distinct sources -> a handful of distinct canonical keys;
    // cold: every query gets a fresh cache key. The canonical key only
    // contains schema params, so source-less algorithms (CC, PR) need a
    // cost-neutral param jitter to stay cold (PR: damping epsilon-shift;
    // CC has no params, so cold CC becomes BF, which takes a source).
    q.source = kind == "hot"
                   ? static_cast<VertexId>(rng.next_below(8))
                   : static_cast<VertexId>(i % n);
    if (kind != "hot") {
      if (q.algo == "CC") {
        q.algo = "BF";
      } else if (q.algo == "PR") {
        q.params.set("damping",
                     0.85 + 1e-12 * static_cast<double>(i + 1));
      }
    }
    w.push_back(q);
  }
  return w;
}

double run_serialized(StreamSession& session, const std::vector<Query>& w) {
  session.snapshot();  // warm the snapshot cache outside the timer
  Timer t;
  for (const Query& q : w) session.query(q.algo, q.source);
  return static_cast<double>(w.size()) / t.elapsed();
}

Point run_service(StreamSession& session, const std::vector<Query>& w,
                  std::size_t clients, double baseline_qps,
                  WriterSide* writer_out = nullptr,
                  std::vector<EdgeUpdate>* updates = nullptr,
                  std::size_t writer_batch = 0) {
  SnapshotStore store;
  GraphServiceOptions opts;
  opts.workers = clients;
  opts.queue_capacity = std::max<std::size_t>(64, 2 * clients);
  opts.engine.model = SystemModel::Polymer;
  GraphService service(store, opts);
  service.publish_session(session);

  std::atomic<bool> writer_done{false};
  std::thread writer, sampler;
  std::atomic<std::uint64_t> publishes{0};
  std::atomic<std::uint64_t> acquires{0};
  double publish_ms_total = 0;
  std::atomic<std::uint64_t> acquire_ns_max{0};
  if (writer_out != nullptr) {
    // A bounded number of apply+publish cycles; the clients keep querying
    // until the last epoch lands, so the measurement spans every swap.
    writer = std::thread([&] {
      constexpr std::size_t kPublishes = 6;
      std::size_t off = 0;
      for (std::size_t b = 0;
           b < kPublishes && off + writer_batch <= updates->size(); ++b) {
        session.apply(std::span<const EdgeUpdate>(updates->data() + off,
                                                  writer_batch));
        off += writer_batch;
        Timer t;
        service.publish_session(session);
        publish_ms_total += t.elapsed_ms();
        publishes.fetch_add(1);
      }
      writer_done.store(true, std::memory_order_release);
    });
    sampler = std::thread([&] {
      while (!writer_done.load(std::memory_order_acquire)) {
        Timer t;
        const auto ref = store.acquire();
        const auto ns = static_cast<std::uint64_t>(t.elapsed() * 1e9);
        (void)ref;
        std::uint64_t cur = acquire_ns_max.load(std::memory_order_relaxed);
        while (ns > cur &&
               !acquire_ns_max.compare_exchange_weak(cur, ns)) {
        }
        acquires.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  // Closed-loop clients over disjoint slices of the workload; in writer
  // mode they cycle the workload until the writer's last publish.
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> issued{0};
  Timer wall;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t mine = 0;
      for (std::size_t i = c;; i += clients) {
        const bool quota_met = i >= w.size();
        if (quota_met && (writer_out == nullptr ||
                          writer_done.load(std::memory_order_acquire)))
          break;
        service.query(w[i % w.size()]);
        ++mine;
      }
      issued.fetch_add(mine);
    });
  }
  for (auto& t : threads) t.join();
  const double secs = wall.elapsed();

  if (writer_out != nullptr) {
    writer.join();
    sampler.join();
    writer_out->publishes = publishes.load();
    writer_out->publish_ms_mean =
        publishes.load() ? publish_ms_total / double(publishes.load()) : 0;
    writer_out->acquires_sampled = acquires.load();
    writer_out->acquire_us_max = double(acquire_ns_max.load()) / 1e3;
  }

  Point p;
  p.clients = clients;
  p.queries = issued.load();
  p.qps = static_cast<double>(issued.load()) / secs;
  p.ratio = baseline_qps > 0 ? p.qps / baseline_qps : 0;
  const auto lat = service.latency();
  p.p50_ms = lat.p50_ms;
  p.p95_ms = lat.p95_ms;
  p.p99_ms = lat.p99_ms;
  const auto s = service.stats();
  p.cache_hit_rate =
      s.completed ? double(s.cache_hits) / double(s.completed) : 0;
  p.engines = service.engine_pool().stats().created;
  return p;
}

// ---- typed-payload overhead: scalar vs per-vertex vs top-k answers.

struct PayloadCompare {
  double hot_scalar_qps = 0, hot_payload_qps = 0;
  double cold_scalar_qps = 0, cold_payload_qps = 0;
  double topk_qps = 0;
  double hot_overhead = 0;   ///< hot_scalar_qps / hot_payload_qps
  double cold_overhead = 0;  ///< cold_scalar_qps / cold_payload_qps
};

PayloadCompare run_payload_overhead(const Graph& seed, std::size_t count) {
  StreamSession session(seed);
  const auto measure = [&](GraphService& service, std::size_t n,
                           serve::ResultKind kind, std::int64_t top_k) {
    Query q;
    q.algo = "PR";
    q.result = kind;
    if (top_k > 0) q.params.set("top_k", top_k);
    service.query(q);  // warm: the single miss stays outside the timer
    Timer t;
    for (std::size_t i = 0; i < n; ++i) service.query(q);
    return static_cast<double>(n) / t.elapsed();
  };

  PayloadCompare pc;
  {
    // Hot (cache on): the same canonical key every time, so this pair
    // compares the hit paths — returning the cached checksum vs handing
    // out the cached per-vertex payload (a shared_ptr copy, no copy of
    // the vector itself).
    SnapshotStore store;
    GraphServiceOptions opts;
    opts.workers = 1;
    opts.engine.model = SystemModel::Polymer;
    GraphService service(store, opts);
    service.publish_session(session);
    pc.hot_scalar_qps =
        measure(service, count, serve::ResultKind::Checksum, 0);
    pc.hot_payload_qps =
        measure(service, count, serve::ResultKind::Payload, 0);
    pc.topk_qps = measure(service, count, serve::ResultKind::Payload, 8);
  }
  {
    // Cold (cache off): every query recomputes, so this pair isolates
    // what a per-vertex answer adds to a miss — the original-id
    // translation and payload allocation (the checksum run skips both).
    SnapshotStore store;
    GraphServiceOptions opts;
    opts.workers = 1;
    opts.engine.model = SystemModel::Polymer;
    opts.cache_capacity = 0;  // uncached
    GraphService service(store, opts);
    service.publish_session(session);
    const std::size_t cold_count = std::max<std::size_t>(8, count / 8);
    pc.cold_scalar_qps =
        measure(service, cold_count, serve::ResultKind::Checksum, 0);
    pc.cold_payload_qps =
        measure(service, cold_count, serve::ResultKind::Payload, 0);
  }
  pc.hot_overhead =
      pc.hot_payload_qps > 0 ? pc.hot_scalar_qps / pc.hot_payload_qps : 0;
  pc.cold_overhead =
      pc.cold_payload_qps > 0 ? pc.cold_scalar_qps / pc.cold_payload_qps : 0;
  return pc;
}

void print_point(const std::string& kind, const Point& p) {
  std::cout << "  " << kind << " clients=" << p.clients << ": "
            << p.qps << " q/s (" << p.ratio << "x serial), p50/p95/p99="
            << p.p50_ms << "/" << p.p95_ms << "/" << p.p99_ms
            << "ms, cache=" << p.cache_hit_rate * 100 << "%, engines="
            << p.engines << std::endl;
}

void json_point(std::ofstream& json, const Point& p, bool last) {
  json << "      {\"clients\": " << p.clients << ", \"queries\": "
       << p.queries << ", \"qps\": " << p.qps << ", \"ratio\": " << p.ratio
       << ", \"p50_ms\": " << p.p50_ms << ", \"p95_ms\": " << p.p95_ms
       << ", \"p99_ms\": " << p.p99_ms << ", \"cache_hit_rate\": "
       << p.cache_hit_rate << ", \"engines\": " << p.engines << "}"
       << (last ? "" : ",") << "\n";
}

}  // namespace

int main() {
  const double scale = bench::env_knob("VEBO_SERVE_SCALE",
                                       bench::bench_scale());
  const auto nqueries =
      bench::env_knob<std::size_t>("VEBO_SERVE_QUERIES", 400);
  const auto writer_batch =
      bench::env_knob<std::size_t>("VEBO_SERVE_BATCH", 1024);
  const std::vector<std::size_t> client_counts = {1, 2, 4, 8};

  bench::print_header("serving: GraphService concurrent clients vs "
                      "serialized StreamSession baseline");

  // 80/20 split exactly like the streaming bench: the final 20% is the
  // update stream the with-writer run feeds.
  const Graph full = gen::make_dataset("rmat27", scale, /*seed=*/42);
  const auto all = full.coo().edges();
  const std::size_t seed_count = all.size() * 8 / 10;
  std::vector<Edge> seed_edges(
      all.begin(), all.begin() + static_cast<std::ptrdiff_t>(seed_count));
  EdgeList seed_el(full.num_vertices(), std::move(seed_edges),
                   full.directed());
  seed_el.remove_duplicates();
  const Graph seed = Graph::from_edges(seed_el);
  std::cout << seed.describe("rmat seed") << "\n";
  std::vector<EdgeUpdate> updates;
  for (std::size_t i = seed_count; i < all.size(); ++i)
    updates.push_back(EdgeUpdate::insert(all[i].src, all[i].dst));

  const auto hot = make_workload("hot", nqueries, seed.num_vertices());
  const auto cold = make_workload("cold", nqueries, seed.num_vertices());

  // ---- serialized baselines (one query at a time, no cache).
  StreamSession base_session(seed);
  const double serial_hot_qps = run_serialized(base_session, hot);
  const double serial_cold_qps = run_serialized(base_session, cold);
  std::cout << "  serialized baseline: hot=" << serial_hot_qps
            << " q/s, cold=" << serial_cold_qps << " q/s\n";

  // ---- service, no writer.
  std::vector<Point> hot_points, cold_points;
  for (std::size_t c : client_counts) {
    StreamSession session(seed);
    hot_points.push_back(run_service(session, hot, c, serial_hot_qps));
    print_point("hot ", hot_points.back());
  }
  for (std::size_t c : client_counts) {
    StreamSession session(seed);
    cold_points.push_back(run_service(session, cold, c, serial_cold_qps));
    print_point("cold", cold_points.back());
  }

  // ---- 8 clients with a concurrent writer publishing epochs (clients
  // cycle the workload until the writer's 6th publish lands, so the
  // measurement spans several epoch swaps and cache invalidations).
  WriterSide ws;
  StreamSession writer_session(seed);
  const Point with_writer = run_service(writer_session, hot, 8,
                                        serial_hot_qps, &ws, &updates,
                                        writer_batch);
  print_point("hot+writer", with_writer);
  std::cout << "  writer: " << ws.publishes << " publishes ("
            << ws.publish_ms_mean << "ms mean), reader acquire max="
            << ws.acquire_us_max << "us over " << ws.acquires_sampled
            << " samples\n";

  // ---- typed-payload overhead vs the checksum scalar (1 client, PR).
  const PayloadCompare pc = run_payload_overhead(seed, nqueries);
  std::cout << "  payload: hot scalar=" << pc.hot_scalar_qps
            << " q/s vs per-vertex=" << pc.hot_payload_qps << " q/s ("
            << pc.hot_overhead << "x), top-8=" << pc.topk_qps
            << " q/s; cold scalar=" << pc.cold_scalar_qps
            << " q/s vs per-vertex=" << pc.cold_payload_qps << " q/s ("
            << pc.cold_overhead << "x)\n";

  const Point& op = hot_points.back();  // 8 clients, hot
  std::ofstream json("BENCH_serving.json");
  json << "{\n  \"bench\": \"serving\",\n  \"scale\": " << scale
       << ",\n  \"threads\": " << ThreadPool::global_threads()
       << ",\n  \"graph\": {\"name\": \"rmat\", \"n\": "
       << seed.num_vertices() << ", \"m\": " << seed.num_edges()
       << "},\n  \"queries\": " << nqueries
       << ",\n  \"baseline\": {\"hot_qps\": " << serial_hot_qps
       << ", \"cold_qps\": " << serial_cold_qps << "},\n"
       << "  \"hot\": [\n";
  for (std::size_t i = 0; i < hot_points.size(); ++i)
    json_point(json, hot_points[i], i + 1 == hot_points.size());
  json << "  ],\n  \"cold\": [\n";
  for (std::size_t i = 0; i < cold_points.size(); ++i)
    json_point(json, cold_points[i], i + 1 == cold_points.size());
  json << "  ],\n  \"hot_with_writer\": [\n";
  json_point(json, with_writer, true);
  json << "  ],\n  \"payload_overhead\": {\"algo\": \"PR\", \"clients\": 1"
       << ", \"hot_scalar_qps\": " << pc.hot_scalar_qps
       << ", \"hot_payload_qps\": " << pc.hot_payload_qps
       << ", \"hot_overhead\": " << pc.hot_overhead
       << ", \"topk_qps\": " << pc.topk_qps
       << ", \"cold_scalar_qps\": " << pc.cold_scalar_qps
       << ", \"cold_payload_qps\": " << pc.cold_payload_qps
       << ", \"cold_overhead\": " << pc.cold_overhead << "},\n"
       << "  \"writer\": {\"publishes\": " << ws.publishes
       << ", \"publish_ms_mean\": " << ws.publish_ms_mean
       << ", \"reader_acquire_us_max\": " << ws.acquire_us_max
       << ", \"acquires_sampled\": " << ws.acquires_sampled << "},\n"
       << "  \"op_point\": {\"clients\": " << op.clients
       << ", \"workload\": \"hot\", \"qps\": " << op.qps
       << ", \"serial_qps\": " << serial_hot_qps
       << ", \"ratio\": " << op.ratio << "}\n}\n";
  json.close();
  std::cout << "\nWrote BENCH_serving.json (8-client hot ratio "
            << op.ratio << "x, cold " << cold_points.back().ratio
            << "x)" << std::endl;
  return 0;
}
