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
// Everything lands in BENCH_serving.json (bench::Record); each qps is one
// closed-loop run (n = 1), and the headline op point is the 8-client hot
// ratio over the serialized baseline.
//
// Knobs: VEBO_SERVE_SCALE (dataset scale, default bench_scale()),
// VEBO_SERVE_QUERIES (queries per measurement, default 400),
// VEBO_SERVE_BATCH (writer batch size, default 1024).
#include <algorithm>
#include <atomic>
#include <chrono>
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

/// A value measured once, as a record value.
Summary once(double v) { return summarize(std::vector{v}); }

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

/// One closed-loop measurement: prints its line and returns its record
/// fields (ratio = qps / serialized baseline qps on the same workload).
bench::Fields run_service(const std::string& kind, StreamSession& session,
                  const std::vector<Query>& w, std::size_t clients,
                  double baseline_qps, bench::Fields* writer_out = nullptr,
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
  std::vector<double> publish_ms;  // written by the writer thread only
  std::vector<double> acquire_us;  // written by the sampler thread only
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
        publish_ms.push_back(t.elapsed_ms());
      }
      writer_done.store(true, std::memory_order_release);
    });
    sampler = std::thread([&] {
      while (!writer_done.load(std::memory_order_acquire)) {
        Timer t;
        const auto ref = store.acquire();
        acquire_us.push_back(t.elapsed() * 1e6);
        (void)ref;
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
  }

  const double qps = static_cast<double>(issued.load()) / secs;
  const double ratio = bench::ratio(qps, baseline_qps);
  const auto lat = service.latency();
  const auto s = service.stats();
  const double hit_rate =
      bench::ratio(double(s.cache_hits), double(s.completed));
  const auto engines = service.engine_pool().stats().created;
  std::cout << "  " << kind << " clients=" << clients << ": " << qps
            << " q/s (" << ratio << "x serial), p50/p95/p99="
            << lat.p50_ms << "/" << lat.p95_ms << "/" << lat.p99_ms
            << "ms, cache=" << hit_rate * 100 << "%, engines=" << engines
            << std::endl;
  if (writer_out != nullptr) {
    const Summary publish = summarize(publish_ms);
    const Summary acquire = summarize(acquire_us);
    writer_out->set("publish_ms", publish).set("reader_acquire_us", acquire);
    std::cout << "  writer: " << publish.count << " publishes ("
              << publish.median << "ms median), reader acquire max="
              << acquire.max << "us over " << acquire.count << " samples\n";
  }
  return bench::Fields()
      .set("clients", clients)
      .set("queries", issued.load())
      .set("qps", once(qps))
      .set("ratio", ratio)
      .set("p50_ms", lat.p50_ms)
      .set("p95_ms", lat.p95_ms)
      .set("p99_ms", lat.p99_ms)
      .set("cache_hit_rate", hit_rate)
      .set("engines", engines);
}

// ---- typed-payload overhead: scalar vs per-vertex vs top-k answers.

bench::Fields run_payload_overhead(const Graph& seed, std::size_t count) {
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

  double hot_scalar_qps = 0, hot_payload_qps = 0, topk_qps = 0;
  double cold_scalar_qps = 0, cold_payload_qps = 0;
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
    hot_scalar_qps = measure(service, count, serve::ResultKind::Checksum, 0);
    hot_payload_qps = measure(service, count, serve::ResultKind::Payload, 0);
    topk_qps = measure(service, count, serve::ResultKind::Payload, 8);
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
    cold_scalar_qps =
        measure(service, cold_count, serve::ResultKind::Checksum, 0);
    cold_payload_qps =
        measure(service, cold_count, serve::ResultKind::Payload, 0);
  }
  const double hot_overhead = bench::ratio(hot_scalar_qps, hot_payload_qps);
  const double cold_overhead =
      bench::ratio(cold_scalar_qps, cold_payload_qps);
  std::cout << "  payload: hot scalar=" << hot_scalar_qps
            << " q/s vs per-vertex=" << hot_payload_qps << " q/s ("
            << hot_overhead << "x), top-8=" << topk_qps
            << " q/s; cold scalar=" << cold_scalar_qps
            << " q/s vs per-vertex=" << cold_payload_qps << " q/s ("
            << cold_overhead << "x)\n";
  return bench::Fields()
      .set("algo", "PR")
      .set("clients", 1)
      .set("hot_scalar_qps", once(hot_scalar_qps))
      .set("hot_payload_qps", once(hot_payload_qps))
      .set("hot_overhead", hot_overhead)
      .set("topk_qps", once(topk_qps))
      .set("cold_scalar_qps", once(cold_scalar_qps))
      .set("cold_payload_qps", once(cold_payload_qps))
      .set("cold_overhead", cold_overhead);
}


}  // namespace

int main() {
  bench::Record rec("serving");
  const double scale =
      rec.knob("VEBO_SERVE_SCALE", bench::bench_scale());
  const auto nqueries = rec.knob<std::size_t>("VEBO_SERVE_QUERIES", 400);
  const auto writer_batch = rec.knob<std::size_t>("VEBO_SERVE_BATCH", 1024);
  rec.lock_settings();
  const std::vector<std::size_t> client_counts = {1, 2, 4, 8};

  bench::print_header("serving: GraphService concurrent clients vs "
                      "serialized StreamSession baseline",
                      scale, "VEBO_SERVE_SCALE");

  // 80/20 split exactly like the streaming bench: the final 20% is the
  // update stream the with-writer run feeds.
  const Graph full = gen::make_dataset("rmat27", scale, /*seed=*/42);
  const std::vector<Edge> all = bench::edges_of(full);
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
  std::vector<bench::Fields> hot_points, cold_points;
  for (std::size_t c : client_counts) {
    StreamSession session(seed);
    hot_points.push_back(
        run_service("hot ", session, hot, c, serial_hot_qps));
  }
  for (std::size_t c : client_counts) {
    StreamSession session(seed);
    cold_points.push_back(
        run_service("cold", session, cold, c, serial_cold_qps));
  }

  // ---- 8 clients with a concurrent writer publishing epochs (clients
  // cycle the workload until the writer's 6th publish lands, so the
  // measurement spans several epoch swaps and cache invalidations).
  bench::Fields writer;
  StreamSession writer_session(seed);
  const bench::Fields with_writer =
      run_service("hot+writer", writer_session, hot, 8, serial_hot_qps,
                  &writer, &updates, writer_batch);
  rec.set("graph", bench::Fields()
                       .set("name", "rmat")
                       .set("n", seed.num_vertices())
                       .set("m", seed.num_edges()));
  rec.set("baseline", bench::Fields()
                          .set("hot_qps", once(serial_hot_qps))
                          .set("cold_qps", once(serial_cold_qps)));
  rec.set("hot", hot_points);
  rec.set("cold", cold_points);
  rec.set("hot_with_writer", with_writer);
  rec.set("writer", writer);
  // ---- typed-payload overhead vs the checksum scalar (1 client, PR).
  rec.set("payload_overhead", run_payload_overhead(seed, nqueries));

  // Headline: the 8-client hot point against the serialized baseline.
  rec.op_point(bench::Fields(hot_points.back())
                   .set("workload", "hot")
                   .set("serial_qps", once(serial_hot_qps)));
  rec.write();
  return 0;
}
