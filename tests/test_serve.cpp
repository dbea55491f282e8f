// Tests for the serving subsystem: epoch-versioned snapshot publication
// and reclamation, the engine pool's lease/rebind lifecycle, and the
// GraphService front end (admission control, version-keyed caching,
// source-id mapping, mixed reader/writer traffic). The threaded cases
// double as the ThreadSanitizer workload for the CI tsan job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "algorithms/registry.hpp"
#include "framework/cancel.hpp"
#include "gen/rmat.hpp"
#include "graph/permute.hpp"
#include "order/partition.hpp"
#include "serve/engine_pool.hpp"
#include "serve/graph_service.hpp"
#include "serve/service_error.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/session.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/histogram.hpp"
#include "support/prng.hpp"

namespace vebo {
namespace {

using serve::EnginePool;
using serve::EnginePoolOptions;
using serve::GraphService;
using serve::GraphServiceOptions;
using serve::Query;
using serve::QueryResult;
using serve::SnapshotRef;
using serve::SnapshotStore;
using serve::SubmitStatus;
using stream::EdgeUpdate;
using stream::StreamSession;

std::shared_ptr<const Graph> make_graph(int scale, int deg,
                                        std::uint64_t seed) {
  return std::make_shared<const Graph>(gen::rmat(scale, deg, seed));
}

order::Partitioning part_of(const Graph& g, VertexId p = 4) {
  return order::partition_by_destination(g, p);
}

std::vector<EdgeUpdate> random_batch(Xoshiro256& rng, VertexId n,
                                     std::size_t count) {
  std::vector<EdgeUpdate> b;
  b.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto s = static_cast<VertexId>(rng.next_below(n));
    const auto d = static_cast<VertexId>(rng.next_below(n));
    b.push_back(rng.next_below(8) == 0 ? EdgeUpdate::remove(s, d)
                                       : EdgeUpdate::insert(s, d));
  }
  return b;
}

// -------------------------------------------------------- SnapshotStore

TEST(SnapshotStore, EmptyStoreYieldsInvalidRef) {
  SnapshotStore store;
  EXPECT_EQ(store.version(), 0u);
  const SnapshotRef ref = store.acquire();
  EXPECT_FALSE(ref.valid());
  EXPECT_EQ(ref.version(), 0u);
  EXPECT_EQ(ref.perm(), nullptr);
  // Dereferencing accessors on an empty ref throw instead of UB.
  EXPECT_THROW(ref.graph(), Error);
  EXPECT_THROW(ref.partitioning(), Error);
  EXPECT_THROW(ref.shared_graph(), Error);
}

TEST(SnapshotStore, PublishBumpsVersionAndAcquirePins) {
  SnapshotStore store;
  auto g1 = make_graph(8, 4, 1);
  EXPECT_EQ(store.publish(g1, part_of(*g1)), 1u);
  EXPECT_EQ(store.version(), 1u);
  const SnapshotRef ref = store.acquire();
  ASSERT_TRUE(ref.valid());
  EXPECT_EQ(ref.version(), 1u);
  EXPECT_EQ(&ref.graph(), g1.get());
  EXPECT_EQ(ref.partitioning().boundaries.back(), g1->num_vertices());

  auto g2 = make_graph(8, 4, 2);
  EXPECT_EQ(store.publish(g2, part_of(*g2)), 2u);
  EXPECT_EQ(store.version(), 2u);
  EXPECT_EQ(store.acquire().version(), 2u);
  // The old ref still names epoch 1.
  EXPECT_EQ(ref.version(), 1u);
}

TEST(SnapshotStore, PublishRejectsMismatchedParts) {
  SnapshotStore store;
  auto g = make_graph(7, 4, 3);
  EXPECT_THROW(store.publish(nullptr, {}), Error);
  order::Partitioning bad;
  bad.boundaries = {0, g->num_vertices() / 2};  // does not cover
  EXPECT_THROW(store.publish(g, bad), Error);
  auto perm = std::make_shared<const Permutation>(Permutation(3));
  EXPECT_THROW(store.publish(g, part_of(*g), perm), Error);
}

// An identity permutation carries no information (snapshot ids already
// are original ids): publish detects it and drops it, so readers take
// the nullptr no-translation path instead of copying every payload
// through a no-op mapping. A non-identity perm is kept verbatim.
TEST(SnapshotStore, IdentityPermIsDroppedAtPublish) {
  SnapshotStore store;
  auto g = make_graph(7, 4, 3);
  store.publish(g, part_of(*g),
                std::make_shared<const Permutation>(
                    identity_permutation(g->num_vertices())));
  EXPECT_EQ(store.acquire().perm(), nullptr);

  Permutation swapped = identity_permutation(g->num_vertices());
  std::swap(swapped[0], swapped[1]);
  auto reordered = std::make_shared<const Graph>(permute(*g, swapped));
  store.publish(reordered, part_of(*reordered),
                std::make_shared<const Permutation>(swapped));
  ASSERT_NE(store.acquire().perm(), nullptr);
  EXPECT_EQ((*store.acquire().perm())[0], 1u);
}

// The ISSUE's snapshot-lifetime criterion: a reader holding a ref across
// >= 2 publishes still sees a valid, version-consistent graph, and every
// superseded snapshot is reclaimed once its last reference drops (ASan
// verifies the frees are real and leak-free).
TEST(SnapshotStore, ReaderSurvivesTwoPublishesAndReclamationFollowsRefs) {
  SnapshotStore store;
  auto g1 = make_graph(9, 6, 11);
  const std::uint64_t h1 = structural_hash(*g1);
  const VertexId n1 = g1->num_vertices();
  store.publish(std::move(g1), {});  // store holds the only graph ref

  SnapshotRef held = store.acquire();
  ASSERT_TRUE(held.valid());

  store.publish(make_graph(9, 6, 12), {});
  store.publish(make_graph(9, 6, 13), {});

  // Held epoch is untouched by the two publishes.
  EXPECT_EQ(held.version(), 1u);
  EXPECT_EQ(held.graph().num_vertices(), n1);
  EXPECT_EQ(structural_hash(held.graph()), h1);

  // Epoch 2 had no readers: reclaimed the moment epoch 3 replaced it.
  // Epoch 1 lives through `held`; epoch 3 lives in the store.
  auto s = store.stats();
  EXPECT_EQ(s.published, 3u);
  EXPECT_EQ(s.reclaimed, 1u);
  EXPECT_EQ(s.live, 2u);

  {
    const SnapshotRef copy = held;  // refcount, not epoch count
    EXPECT_EQ(store.stats().live, 2u);
  }
  EXPECT_EQ(store.stats().live, 2u);

  // Dropping the last ref to epoch 1 reclaims it.
  held = SnapshotRef();
  s = store.stats();
  EXPECT_EQ(s.reclaimed, 2u);
  EXPECT_EQ(s.live, 1u);
}

TEST(SnapshotStore, RefsOutliveTheStoreItself) {
  SnapshotRef held;
  {
    SnapshotStore store;
    auto g = make_graph(8, 4, 21);
    store.publish(g, part_of(*g));
    held = store.acquire();
  }
  ASSERT_TRUE(held.valid());
  EXPECT_GT(held.graph().num_edges(), 0u);
}

// Readers racing a publishing writer: every acquired ref must be
// internally consistent (version matches the graph published under that
// version) and versions observed by one reader never go backwards.
TEST(SnapshotStore, ConcurrentReadersSeeConsistentEpochs) {
  SnapshotStore store;
  constexpr int kVersions = 24;
  constexpr int kReaders = 4;
  // Pre-build all graphs so the writer loop is tight; vertex count encodes
  // the version for the consistency check.
  std::vector<std::shared_ptr<const Graph>> graphs;
  std::vector<VertexId> nv;
  for (int v = 1; v <= kVersions; ++v) {
    EdgeList el(static_cast<VertexId>(v + 2),
                {{0, 1}, {1, static_cast<VertexId>(v + 1)}}, true);
    graphs.push_back(std::make_shared<const Graph>(Graph::from_edges(el)));
    nv.push_back(graphs.back()->num_vertices());
  }
  store.publish(graphs[0], {});

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const SnapshotRef ref = store.acquire();
        if (!ref.valid()) continue;
        const std::uint64_t v = ref.version();
        if (v < last || v == 0 || v > kVersions ||
            ref.graph().num_vertices() != nv[v - 1])
          failures.fetch_add(1);
        last = v;
      }
    });
  }
  for (int v = 2; v <= kVersions; ++v) store.publish(graphs[v - 1], {});
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.version(), static_cast<std::uint64_t>(kVersions));
}

// ----------------------------------------------------------- EnginePool

SnapshotRef publish_and_acquire(SnapshotStore& store,
                                std::shared_ptr<const Graph> g) {
  store.publish(g, part_of(*g));
  return store.acquire();
}

TEST(EnginePool, ConcurrentLeasesGetDistinctEngines) {
  SnapshotStore store;
  const SnapshotRef snap = publish_and_acquire(store, make_graph(8, 4, 31));
  EnginePool pool({.model = SystemModel::Polymer, .max_engines = 4});

  EnginePool::Lease a = pool.lease(snap);
  EnginePool::Lease b = pool.lease(snap);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_NE(&a.engine(), &b.engine());
  EXPECT_EQ(&a.engine().graph(), &snap.graph());
  EXPECT_EQ(&b.engine().graph(), &snap.graph());
  a.release();
  b.release();
  const auto s = pool.stats();
  EXPECT_EQ(s.created, 2u);
  EXPECT_EQ(s.leases, 2u);
  EXPECT_EQ(s.rebinds, 0u);
}

TEST(EnginePool, LeaseAfterPublishRebindsInsteadOfCreating) {
  SnapshotStore store;
  const SnapshotRef v1 = publish_and_acquire(store, make_graph(8, 4, 41));
  EnginePool pool({.model = SystemModel::Polymer, .max_engines = 2});

  Engine* eng1;
  {
    EnginePool::Lease l = pool.lease(v1);
    eng1 = &l.engine();
    EXPECT_EQ(l.snapshot().version(), 1u);
  }
  const SnapshotRef v2 = publish_and_acquire(store, make_graph(9, 4, 42));
  {
    EnginePool::Lease l = pool.lease(v2);
    // Same pooled context (scratch preserved), rebound to the new epoch.
    EXPECT_EQ(&l.engine(), eng1);
    EXPECT_EQ(&l.engine().graph(), &v2.graph());
    EXPECT_EQ(l.snapshot().version(), 2u);
    EXPECT_EQ(l.engine().partitioning().boundaries.back(),
              v2.graph().num_vertices());
  }
  const auto s = pool.stats();
  EXPECT_EQ(s.created, 1u);
  EXPECT_EQ(s.rebinds, 1u);
}

TEST(EnginePool, PoolPinsBoundSnapshots) {
  SnapshotStore store;
  EnginePool pool({.model = SystemModel::Polymer, .max_engines = 1});
  {
    const SnapshotRef v1 = publish_and_acquire(store, make_graph(8, 4, 51));
    EnginePool::Lease l = pool.lease(v1);
  }  // lease + local ref gone; the pool entry still pins epoch 1
  store.publish(make_graph(8, 4, 52), {});
  EXPECT_EQ(store.stats().live, 2u);  // epoch 1 (pool) + epoch 2 (store)

  // Leasing for epoch 2 rebinds the entry and releases the old pin.
  { EnginePool::Lease l = pool.lease(store.acquire()); }
  EXPECT_EQ(store.stats().live, 1u);
}

TEST(EnginePool, BlocksAtCapacityUntilRelease) {
  SnapshotStore store;
  const SnapshotRef snap = publish_and_acquire(store, make_graph(8, 4, 61));
  EnginePool pool({.model = SystemModel::Ligra, .max_engines = 1});

  EnginePool::Lease first = pool.lease(snap);
  std::atomic<bool> leased{false};
  std::thread waiter([&] {
    EnginePool::Lease second = pool.lease(snap);
    leased.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(leased.load(std::memory_order_acquire));
  first.release();
  waiter.join();
  EXPECT_TRUE(leased.load(std::memory_order_acquire));
  EXPECT_EQ(pool.stats().created, 1u);
  EXPECT_GE(pool.stats().waits, 1u);
}

// Concurrent queries on pooled engines, exercising the per-engine scratch
// and the rebind path under TSan.
TEST(EnginePool, ParallelQueriesProduceSerialAnswers) {
  SnapshotStore store;
  const SnapshotRef snap = publish_and_acquire(store, make_graph(10, 6, 71));
  const Engine serial(snap.graph(), SystemModel::Polymer);
  const algo::AlgorithmSpec& cc = algo::spec("CC");
  const algo::AlgorithmSpec& bfs = algo::spec("BFS");
  const double want_cc = cc.checksum(cc.invoke(serial));
  const double want_bfs = bfs.checksum(bfs.invoke(serial));

  EnginePool pool({.model = SystemModel::Polymer, .max_engines = 4});
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 3; ++i) {
        EnginePool::Lease l = pool.lease(snap);
        const algo::AlgorithmSpec& s = (t + i) % 2 == 0 ? cc : bfs;
        const double got = s.checksum(s.invoke(l.engine()));
        const double want = (t + i) % 2 == 0 ? want_cc : want_bfs;
        if (got != want) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------- Engine sharing (satellite)

// Threads reading one engine's dense chunk bounds, which rebind built
// before any of them started, all see the same complete structure (the
// TSan job runs this at real parallelism).
TEST(EngineSharing, ConcurrentDenseChunksBuildIsSafe) {
  const Graph g = gen::rmat(10, 6, 81);
  const Engine eng(g, SystemModel::Ligra);
  constexpr int kThreads = 4;
  std::vector<std::span<const VertexId>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { seen[t] = eng.dense_chunks(); });
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t].data(), seen[0].data());
    EXPECT_EQ(seen[t].size(), seen[0].size());
  }
  ASSERT_GE(seen[0].size(), 2u);
  EXPECT_EQ(seen[0].front(), 0u);
  EXPECT_EQ(seen[0].back(), g.num_vertices());
  EXPECT_TRUE(std::ranges::is_sorted(seen[0]));
}

// ------------------------------------------------- Registry (satellite)

TEST(Registry, ConcurrentLookupIsSafeAndConsistent) {
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        for (const std::string& code : algo::algorithm_codes()) {
          const algo::AlgorithmSpec* s = algo::find_spec(code);
          if (s == nullptr || s->code != code) failures.fetch_add(1);
        }
        if (algo::find_spec("NOPE") != nullptr) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(algo::algorithm_codes().size(), algo::specs().size());
  EXPECT_THROW(algo::spec("NOPE"), Error);
}

// ---------------------------------------------- Histogram (satellite)

TEST(Histogram, ValueAtQuantileNearestRank) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.value_at_quantile(0.0), 1u);
  EXPECT_EQ(h.value_at_quantile(0.50), 50u);
  EXPECT_EQ(h.value_at_quantile(0.95), 95u);
  EXPECT_EQ(h.value_at_quantile(0.99), 99u);
  EXPECT_EQ(h.value_at_quantile(1.0), 100u);
  EXPECT_EQ(Histogram{}.value_at_quantile(0.5), 0u);
  Histogram one;
  one.add(7);
  EXPECT_EQ(one.value_at_quantile(0.5), 7u);
  EXPECT_EQ(one.value_at_quantile(0.99), 7u);
}

TEST(Histogram, LogBucketsAreBoundedMonotonicAndTight) {
  // Exact below 32, ~6% relative error above, codomain < 1024 for any
  // 64-bit value (keeps latency histograms a few KB).
  for (std::uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(log_bucket(v), v);
    EXPECT_EQ(log_bucket_floor(v), v);
  }
  std::uint64_t prev_bucket = 0;
  for (std::uint64_t v = 1; v != 0 && v < (1ull << 62); v = v * 3 + 1) {
    const std::uint64_t b = log_bucket(v);
    EXPECT_LT(b, 1024u);
    EXPECT_GE(b, prev_bucket);  // monotone in v
    prev_bucket = b;
    const std::uint64_t f = log_bucket_floor(b);
    EXPECT_LE(f, v);  // floor never over-reports
    EXPECT_GE(f, v - v / 16);  // within one sub-bucket (~6%)
  }
}

// --------------------------------------------------------- GraphService

GraphServiceOptions small_service(std::size_t workers = 2) {
  GraphServiceOptions o;
  o.workers = workers;
  o.queue_capacity = 64;
  o.engine.model = SystemModel::Polymer;
  return o;
}

TEST(GraphService, AnswersMatchTheSerialSession) {
  const Graph base = gen::rmat(9, 6, 91);
  StreamSession session(base);
  SnapshotStore store;
  GraphService service(store, small_service());
  service.publish_session(session);

  // Expected values from the single-caller path on the same version.
  for (const char* code : {"BFS", "CC", "PR"}) {
    for (VertexId src : {VertexId{0}, VertexId{5}}) {
      const double want = session.query(code, src);
      const QueryResult got = service.query({code, src});
      EXPECT_EQ(got.value, want) << code << " src=" << src;
      EXPECT_EQ(got.version, 1u);
    }
  }
  EXPECT_EQ(service.stats().failed, 0u);
}

TEST(GraphService, ManyClientsOneVersion) {
  const Graph base = gen::rmat(9, 6, 92);
  StreamSession session(base);
  SnapshotStore store;
  GraphService service(store, small_service(4));
  service.publish_session(session);
  const double want_cc = session.query("CC");

  constexpr int kClients = 8;
  constexpr int kPerClient = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        try {
          const QueryResult r = service.query({"CC", 0});
          if (r.value != want_cc || r.version != 1) failures.fetch_add(1);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto s = service.stats();
  EXPECT_EQ(s.completed,
            static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(s.failed, 0u);
  // Identical queries on one epoch: everything after the first miss can
  // be served from the cache.
  EXPECT_GE(s.cache_hits, 1u);
}

TEST(GraphService, CacheHitsAndPublishInvalidation) {
  const Graph base = gen::rmat(9, 6, 93);
  StreamSession session(base);
  SnapshotStore store;
  GraphService service(store, small_service(1));
  service.publish_session(session);

  const QueryResult miss = service.query({"CC", 0});
  EXPECT_FALSE(miss.cache_hit);
  const QueryResult hit = service.query({"CC", 0});
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.value, miss.value);
  EXPECT_EQ(service.stats().cache_hits, 1u);

  // A publish makes the cached value unreachable (new epoch).
  Xoshiro256 rng(7);
  const auto batch = random_batch(rng, base.num_vertices(), 256);
  session.apply(batch);
  service.publish_session(session);
  const QueryResult after = service.query({"CC", 0});
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.version, 2u);
  EXPECT_GE(service.stats().invalidations, 1u);
}

TEST(GraphService, DisabledCacheNeverHits) {
  const Graph base = gen::rmat(8, 4, 94);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o = small_service(1);
  o.enable_cache = false;
  GraphService service(store, o);
  service.publish_session(session);
  service.query({"CC", 0});
  const QueryResult again = service.query({"CC", 0});
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(GraphService, SourcesAreOriginalIdsAcrossReordering) {
  // A graph VEBO actually reorders: expect per-source BFS answers to match
  // the session, which translates original ids the same way.
  const Graph base = gen::rmat(9, 8, 95);
  StreamSession session(base);
  SnapshotStore store;
  GraphService service(store, small_service());
  service.publish_session(session);
  for (VertexId src : {VertexId{1}, VertexId{17}, VertexId{100}}) {
    const double want = session.query("BFS", src);
    EXPECT_EQ(service.query({"BFS", src}).value, want) << "src=" << src;
  }
}

TEST(GraphService, BackpressureRejectsInsteadOfBlocking) {
  const Graph base = gen::rmat(10, 8, 96);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o = small_service(1);
  o.queue_capacity = 1;
  o.enable_cache = false;  // every query does real work
  GraphService service(store, o);
  service.publish_session(session);

  // Flood: 1 worker + 1 queue slot; with 24 instant submissions some must
  // be rejected with QueueFull, and every accepted future must resolve.
  std::vector<std::future<QueryResult>> accepted;
  std::uint64_t rejected = 0;
  for (int i = 0; i < 24; ++i) {
    auto sub = service.submit({"PR", 0});
    if (sub.accepted())
      accepted.push_back(std::move(sub.result));
    else {
      EXPECT_EQ(sub.status, SubmitStatus::QueueFull);
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_GE(accepted.size(), 1u);
  for (auto& f : accepted) EXPECT_GT(f.get().value, 0.0);
  const auto s = service.stats();
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_EQ(s.completed, accepted.size());
}

TEST(GraphService, FailuresAreDeliveredThroughFutures) {
  SnapshotStore store;
  GraphService service(store, small_service(1));
  // No snapshot published yet.
  EXPECT_THROW(service.query({"CC", 0}), Error);

  const Graph base = gen::rmat(8, 4, 97);
  StreamSession session(base);
  service.publish_session(session);
  EXPECT_THROW(service.query({"NOPE", 0}), Error);   // unknown algorithm
  EXPECT_THROW(service.query({"BFS", 1u << 30}), Error);  // bad source
  EXPECT_EQ(service.stats().failed, 3u);
  // The service still works afterwards.
  EXPECT_GT(service.query({"CC", 0}).value, 0.0);
}

TEST(GraphService, StopDrainsQueueAndRejectsLateSubmits) {
  const Graph base = gen::rmat(9, 6, 98);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o = small_service(1);
  o.enable_cache = false;
  GraphService service(store, o);
  service.publish_session(session);

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 6; ++i) {
    auto sub = service.submit({"BFS", 0});
    ASSERT_TRUE(sub.accepted());
    futures.push_back(std::move(sub.result));
  }
  service.stop();  // must drain, not drop
  for (auto& f : futures) EXPECT_GT(f.get().value, 0.0);
  EXPECT_EQ(service.submit({"BFS", 0}).status, SubmitStatus::Stopped);
}

// latency() is the latency sink's cumulative view, which it keeps with
// the sliding window off too.
TEST(GraphService, LatencyPercentilesAreRecorded) {
  const Graph base = gen::rmat(9, 6, 99);
  for (const bool window : {true, false}) {
    SCOPED_TRACE(window ? "window on" : "window off");
    StreamSession session(base);
    SnapshotStore store;
    GraphServiceOptions o = small_service(2);
    o.telemetry.window = window;
    GraphService service(store, o);
    service.publish_session(session);
    for (int i = 0; i < 10; ++i) service.query({"BFS", 0});
    const auto lat = service.latency();
    EXPECT_EQ(lat.samples, 10u);
    EXPECT_GT(lat.p50_ms, 0.0);
    EXPECT_LE(lat.p50_ms, lat.p95_ms);
    EXPECT_LE(lat.p95_ms, lat.p99_ms);
    EXPECT_GT(lat.mean_ms, 0.0);
  }
}

// ------------------------------------- typed query protocol end-to-end

// The ISSUE-4 acceptance path: a client retrieves per-vertex PageRank and
// BFS payloads addressed in ORIGINAL vertex ids, across a streaming
// publish that re-permutes the snapshot. Ground truth is the serial
// session's typed surface on the same version.
TEST(GraphService, TypedPayloadsInOriginalIdsAcrossPublish) {
  const Graph base = gen::rmat(9, 8, 101);
  StreamSession session(base);
  SnapshotStore store;
  GraphService service(store, small_service());
  service.publish_session(session);

  const auto check_epoch = [&](std::uint64_t version) {
    // Per-vertex PageRank scores by original id.
    Query pr;
    pr.algo = "PR";
    pr.params.set("iterations", 5);
    pr.result = serve::ResultKind::Payload;
    const QueryResult got = service.query(pr);
    ASSERT_NE(got.payload, nullptr);
    EXPECT_EQ(got.version, version);
    const algo::QueryPayload want = session.query_typed(
        "PR", algo::QueryParams().set("iterations", 5));
    EXPECT_EQ(got.payload->doubles(), want.doubles());

    // BFS levels from an original-id source.
    Query bfs;
    bfs.algo = "BFS";
    bfs.params.set("source", 3);
    bfs.result = serve::ResultKind::Payload;
    const QueryResult lv = service.query(bfs);
    ASSERT_NE(lv.payload, nullptr);
    const algo::QueryPayload lw = session.query_typed(
        "BFS", algo::QueryParams().set("source", 3));
    EXPECT_EQ(lv.payload->ids(), lw.ids());
    // The checksum rides along with the payload.
    EXPECT_EQ(lv.value, session.query("BFS", 3));

    // Top-k payloads name original vertices with their true scores.
    Query top;
    top.algo = "PR";
    top.params.set("iterations", 5).set("top_k", 4);
    top.result = serve::ResultKind::Payload;
    const QueryResult tk = service.query(top);
    ASSERT_NE(tk.payload, nullptr);
    ASSERT_EQ(tk.payload->top().size(), 4u);
    for (const auto& [v, score] : tk.payload->top())
      EXPECT_EQ(score, want.doubles()[v]);
  };

  check_epoch(1);

  // A batch big enough to move the VEBO maintainer, then a new epoch:
  // original ids must keep meaning the same vertices.
  Xoshiro256 rng(17);
  session.apply(random_batch(rng, base.num_vertices(), 2048));
  service.publish_session(session);
  check_epoch(2);
}

// Checksum-only queries still carry no payload, and semantically equal
// queries hit one cache entry no matter how the params are spelled.
TEST(GraphService, CanonicalKeysHitAcrossParamSpellings) {
  const Graph base = gen::rmat(8, 4, 102);
  StreamSession session(base);
  SnapshotStore store;
  GraphService service(store, small_service(1));
  service.publish_session(session);

  Query a;
  a.algo = "PR";  // all defaults
  const QueryResult miss = service.query(a);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(miss.payload, nullptr);  // Checksum kind carries no payload

  Query b;
  b.algo = "PR";  // defaults spelled out, different insertion order
  b.params.set("damping", 0.85).set("top_k", 0).set("iterations", 10);
  const QueryResult hit = service.query(b);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.value, miss.value);

  // A payload request for the same key also hits: payloads are cached
  // (translated) even when first computed for a checksum query.
  Query c = b;
  c.result = serve::ResultKind::Payload;
  const QueryResult pay = service.query(c);
  EXPECT_TRUE(pay.cache_hit);
  ASSERT_NE(pay.payload, nullptr);
  EXPECT_EQ(pay.payload->num_entries(), base.num_vertices());

  // Distinct params are distinct keys.
  Query d;
  d.algo = "PR";
  d.params.set("iterations", 3);
  EXPECT_FALSE(service.query(d).cache_hit);

  // Ill-typed and unknown params fail the future with vebo::Error.
  Query bad;
  bad.algo = "PR";
  bad.params.set("iterations", 2.5);
  EXPECT_THROW(service.query(bad), Error);
  Query unknown;
  unknown.algo = "PR";
  unknown.params.set("dampening", 0.85);
  EXPECT_THROW(service.query(unknown), Error);
}

// Overflow evicts LRU entries one at a time (counted separately);
// publishes still wipe.
TEST(GraphService, CacheLruEvictionAndPublishWipeAreDistinct) {
  const Graph base = gen::rmat(8, 4, 103);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o = small_service(1);
  o.cache_capacity = 2;
  GraphService service(store, o);
  service.publish_session(session);

  const auto pr_iters = [](int iters) {
    Query q;
    q.algo = "PR";
    q.params.set("iterations", iters);
    return q;
  };
  service.query(pr_iters(1));
  service.query(pr_iters(2));
  EXPECT_EQ(service.stats().evictions, 0u);
  service.query(pr_iters(1));  // bump 1 to MRU
  service.query(pr_iters(3));  // evicts iterations=2
  EXPECT_EQ(service.stats().evictions, 1u);
  EXPECT_TRUE(service.query(pr_iters(1)).cache_hit);   // survived (MRU)
  EXPECT_FALSE(service.query(pr_iters(2)).cache_hit);  // evicted
  const std::uint64_t evictions_before = service.stats().evictions;
  const std::uint64_t invalidations_before = service.stats().invalidations;

  session.apply(std::vector<EdgeUpdate>{EdgeUpdate::insert(0, 5)});
  service.publish_session(session);
  EXPECT_EQ(service.stats().invalidations, invalidations_before + 1);
  EXPECT_FALSE(service.query(pr_iters(1)).cache_hit);  // wiped by publish
  // The wipe counts as an invalidation only — repopulating the emptied
  // cache evicted nothing.
  EXPECT_EQ(service.stats().evictions, evictions_before);
}

// The mixed-traffic case the subsystem exists for: one writer applying
// batches and publishing epochs while concurrent clients keep querying.
// Clients must never observe a failure, a torn graph, or a version going
// backwards; after the writer finishes, the service must agree with the
// serial session on the final version.
TEST(GraphService, WriterAndClientsRunConcurrently) {
  const Graph base = gen::rmat(9, 6, 100);
  StreamSession session(base);
  SnapshotStore store;
  GraphService service(store, small_service(2));
  service.publish_session(session);

  constexpr int kBatches = 10;
  constexpr int kClients = 4;
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    Xoshiro256 rng(31);
    for (int b = 0; b < kBatches; ++b) {
      session.apply(random_batch(rng, base.num_vertices(), 128));
      service.publish_session(session);
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::uint64_t last_version = 0;
      int done = 0;
      while (!(writer_done.load(std::memory_order_acquire) && done >= 6)) {
        try {
          const char* code = c % 2 == 0 ? "CC" : "BFS";
          const QueryResult r =
              service.query({code, static_cast<VertexId>(c)});
          if (r.value <= 0.0 || r.version < last_version)
            failures.fetch_add(1);
          last_version = r.version;
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
        ++done;
      }
    });
  }
  writer.join();
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.stats().failed, 0u);

  // Settled state: service and serial session agree per source.
  for (VertexId src : {VertexId{0}, VertexId{3}}) {
    EXPECT_EQ(service.query({"CC", src}).value, session.query("CC", src));
    EXPECT_EQ(service.query({"BFS", src}).value, session.query("BFS", src));
  }
  // Everything superseded and unreferenced got reclaimed: at most the
  // current epoch + engine-pool pins are alive.
  EXPECT_LE(store.stats().live,
            1 + static_cast<std::uint64_t>(service.engine_pool().size()));
}

// ------------------------------------------- PR 6: overload hardening

// A long-running query: PR with enough iterations that it cannot finish
// before the test reacts (each iteration is a polled superstep, so a
// cancelled run still exits within microseconds).
Query slow_query(int iterations = 50000000) {
  Query q;
  q.algo = "PR";
  q.params.set("iterations", iterations);
  return q;
}

// Waits until the just-submitted query is OUT of the queue and being
// executed. Checking in_flight alone is racy: the worker resolves the
// client's promise before clearing its busy stamp, so under load the
// stamp of an ALREADY-SETTLED query can read as busy while the new one
// still sits in the queue. Busy + drained queue is race-free — the pop
// is sequenced after the previous query's idle store on the worker.
void wait_until_running(GraphService& service) {
  for (;;) {
    const serve::ServiceHealth h = service.health();
    if (h.queue_depth == 0 && h.in_flight > 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServiceError, CodesAreTypedAndCounted) {
  SnapshotStore store;
  GraphService service(store, small_service(1));
  // No snapshot yet -> NoSnapshot, not a bare string error.
  try {
    service.query({"CC", 0});
    FAIL() << "expected ServiceError";
  } catch (const serve::ServiceError& e) {
    EXPECT_EQ(e.code(), serve::ErrorCode::NoSnapshot);
  }

  const Graph base = gen::rmat(8, 4, 201);
  StreamSession session(base);
  service.publish_session(session);
  try {
    service.query({"NOPE", 0});
    FAIL() << "expected ServiceError";
  } catch (const serve::ServiceError& e) {
    EXPECT_EQ(e.code(), serve::ErrorCode::BadRequest);
  }
  try {
    service.query({"BFS", 1u << 30});  // out-of-range source
    FAIL() << "expected ServiceError";
  } catch (const serve::ServiceError& e) {
    EXPECT_EQ(e.code(), serve::ErrorCode::BadRequest);
  }

  const auto s = service.stats();
  EXPECT_EQ(s.failed, 3u);
  EXPECT_EQ(s.errors(serve::ErrorCode::NoSnapshot), 1u);
  EXPECT_EQ(s.errors(serve::ErrorCode::BadRequest), 2u);
  EXPECT_EQ(s.errors(serve::ErrorCode::Internal), 0u);
}

TEST(GraphService, DeadlineExpiredQueuedQueriesAreShed) {
  const Graph base = gen::rmat(9, 6, 202);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o = small_service(1);
  o.enable_cache = false;
  GraphService service(store, o);
  service.publish_session(session);

  // Park the single worker on a long traversal, then queue queries whose
  // deadline lapses while they wait: each must be shed before execution
  // with a typed DeadlineExceeded, never run.
  CancelSource stop_slow;
  Query slow = slow_query();
  slow.cancel = stop_slow.token();
  auto running = service.submit(slow);
  ASSERT_TRUE(running.accepted());
  wait_until_running(service);

  Query doomed{"BFS", 0};
  doomed.deadline_ms = 0.01;  // lapses while the worker stays parked
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 3; ++i) {
    auto sub = service.submit(doomed);
    ASSERT_TRUE(sub.accepted());
    futures.push_back(std::move(sub.result));
  }
  // Let every deadline lapse before the worker frees up, then release
  // it: each doomed query is shed at pickup, never executed.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  stop_slow.cancel();
  try {
    running.result.get();
    FAIL() << "expected Cancelled";
  } catch (const serve::ServiceError& e) {
    EXPECT_EQ(e.code(), serve::ErrorCode::Cancelled);
  }
  for (auto& f : futures) {
    try {
      f.get();
      FAIL() << "expected DeadlineExceeded";
    } catch (const serve::ServiceError& e) {
      EXPECT_EQ(e.code(), serve::ErrorCode::DeadlineExceeded);
    }
  }
  const auto s = service.stats();
  EXPECT_EQ(s.shed_deadline, 3u);
  EXPECT_EQ(s.errors(serve::ErrorCode::DeadlineExceeded), 3u);
  EXPECT_EQ(s.errors(serve::ErrorCode::Cancelled), 1u);
  // Shed queries never ran: only the slow query's lease ever existed and
  // it came back.
  EXPECT_EQ(service.engine_pool().outstanding(), 0u);
}

// A budget the steady clock cannot represent from now (~292 years) or
// +inf has no absolute deadline to name: it must run as no deadline, not
// overflow into one that lapsed before the query was even queued.
TEST(GraphService, UnrepresentableDeadlineMeansNoDeadline) {
  const Graph base = gen::rmat(8, 4, 210);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o = small_service(1);
  o.enable_cache = false;
  GraphService service(store, o);
  service.publish_session(session);

  const double want = session.query("BFS", 0);
  for (const double budget :
       {1e13, 1e16, std::numeric_limits<double>::infinity()}) {
    Query q{"BFS", 0};
    q.deadline_ms = budget;
    EXPECT_EQ(service.query(q).value, want) << "deadline_ms=" << budget;
  }
  EXPECT_EQ(service.stats().errors(serve::ErrorCode::DeadlineExceeded), 0u);
}

TEST(GraphService, CancellationStopsARunningTraversalPromptly) {
  const Graph base = gen::rmat(9, 6, 203);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o = small_service(1);
  o.enable_cache = false;
  GraphService service(store, o);
  service.publish_session(session);

  CancelSource src;
  Query q = slow_query();  // would run for a very long time uncancelled
  q.cancel = src.token();
  auto sub = service.submit(q);
  ASSERT_TRUE(sub.accepted());
  // Let it actually start, then cancel mid-run.
  wait_until_running(service);
  src.cancel();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(sub.result.get(), serve::ServiceError);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  // Cooperative: observed within one superstep, not after 200k of them.
  // Generous bound so sanitizer builds pass; the uncancelled run would
  // take minutes.
  EXPECT_LT(waited_ms, 30000.0);
  EXPECT_EQ(service.stats().errors(serve::ErrorCode::Cancelled), 1u);
  // The worker survived and the engine lease came back.
  EXPECT_EQ(service.engine_pool().outstanding(), 0u);
  EXPECT_GT(service.query({"CC", 0}).value, 0.0);
}

TEST(GraphService, WorkerCatchReleasesLeaseAndFailsExactlyOnce) {
  // The satellite audit regression: a spec that throws mid-execution
  // (injected) must release its engine lease via RAII, increment
  // `failed` exactly once, and deliver the exception through the future.
  const Graph base = gen::rmat(8, 4, 207);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o = small_service(1);
  o.enable_cache = false;
  GraphService service(store, o);
  service.publish_session(session);

  auto& inj = FaultInjector::instance();
  inj.seed(7);
  inj.arm(FaultInjector::Hook::QueryThrow, 1.0);  // every query throws
  try {
    service.query({"CC", 0});
    inj.disarm_all();
    FAIL() << "expected injected failure";
  } catch (const serve::ServiceError& e) {
    inj.disarm_all();
    EXPECT_EQ(e.code(), serve::ErrorCode::Internal);
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
  const auto s = service.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.errors(serve::ErrorCode::Internal), 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(service.engine_pool().outstanding(), 0u);
  // The worker thread survived the throw and serves again.
  EXPECT_GT(service.query({"CC", 0}).value, 0.0);
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(GraphService, HealthReportsQueueAndWorkers) {
  const Graph base = gen::rmat(9, 6, 208);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o = small_service(2);
  o.enable_cache = false;
  GraphService service(store, o);
  service.publish_session(session);

  auto idle = service.health();
  EXPECT_TRUE(idle.accepting);
  EXPECT_EQ(idle.queue_depth, 0u);
  EXPECT_EQ(idle.in_flight, 0u);
  EXPECT_EQ(idle.workers.size(), 2u);

  CancelSource stop_slow;
  Query slow = slow_query();
  slow.cancel = stop_slow.token();
  auto a = service.submit(slow);
  auto b = service.submit(slow);
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  serve::ServiceHealth busy;
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    busy = service.health();
  } while (busy.in_flight < 2);
  EXPECT_GE(busy.oldest_running_ms, 0.0);
  std::size_t busy_workers = 0;
  for (const auto& w : busy.workers) busy_workers += w.busy ? 1 : 0;
  EXPECT_EQ(busy_workers, 2u);

  stop_slow.cancel();
  EXPECT_THROW(a.result.get(), serve::ServiceError);
  EXPECT_THROW(b.result.get(), serve::ServiceError);
  service.stop();
  EXPECT_FALSE(service.health().accepting);
}

TEST(GraphService, StopRacingPublishWithExpiredQueriesResolvesAll) {
  // Shutdown edge: stop() races a publish while deadline-expired queries
  // sit in the queue. Every accepted future must resolve — shed, failed,
  // or completed — none dropped.
  const Graph base = gen::rmat(9, 6, 209);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o = small_service(1);
  o.enable_cache = false;
  GraphService service(store, o);
  service.publish_session(session);

  std::vector<std::future<QueryResult>> futures;
  Query doomed{"BFS", 0};
  doomed.deadline_ms = 0.01;
  auto first = service.submit(slow_query(50));  // keeps the worker busy
  ASSERT_TRUE(first.accepted());
  futures.push_back(std::move(first.result));
  for (int i = 0; i < 8; ++i) {
    auto sub = service.submit(doomed);
    if (sub.accepted()) futures.push_back(std::move(sub.result));
  }

  std::thread publisher([&] {
    const std::vector<EdgeUpdate> batch1 = {EdgeUpdate::insert(0, 2)};
    session.apply(batch1);
    service.publish_session(session);
  });
  service.stop();
  publisher.join();

  std::size_t resolved = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++resolved;
    } catch (const serve::ServiceError&) {
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, futures.size());
  // Idempotence: double-stop and destructor-after-stop are no-ops.
  service.stop();
  const auto s = service.stats();
  EXPECT_EQ(s.submitted, s.completed + s.failed + s.rejected);
}

}  // namespace
}  // namespace vebo
