// Chaos harness for the serving stack: a writer republishing epochs and
// several clients flooding queries while the FaultInjector (support/
// fault.hpp) delays publishes, stalls workers, throws mid-query, delays
// snapshot acquire, and fails payload allocations. The run is seeded and
// deterministic in its firing decisions, so a failure replays.
//
// The invariants under chaos (the PR 6 robustness contract):
//   1. every accepted future resolves — value or ServiceError, never a
//      broken promise and never a hang (the ctest TIMEOUT is the hang
//      detector);
//   2. no stale answer: every answered query names an epoch no older
//      than the store version observed before its submit, and versions
//      are monotone per client;
//   3. the stats ledger balances: submitted == completed + failed +
//      rejected once the service stops;
//   4. every engine lease comes back: pool outstanding() == 0 at the end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "gen/rmat.hpp"
#include "obs/recorder.hpp"
#include "serve/graph_service.hpp"
#include "serve/service_error.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/session.hpp"
#include "support/fault.hpp"
#include "support/prng.hpp"

namespace vebo {
namespace {

using serve::GraphService;
using serve::GraphServiceOptions;
using serve::Query;
using serve::QueryResult;
using serve::SnapshotStore;
using serve::SubmitStatus;
using stream::EdgeUpdate;
using stream::StreamSession;
using Hook = FaultInjector::Hook;

/// Disarms every hook when a test exits, pass or fail: the injector is a
/// process-wide singleton and must never leak armed state across tests.
struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::instance().disarm_all(); }
};

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

// The full storm: all five hooks armed at once over a writer + 4 clients.
TEST(Chaos, WriterAndClientsSurviveInjectedFaults) {
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  inj.seed(0xC4A05u);
  inj.arm(Hook::PublishDelay, 0.5, 300);
  inj.arm(Hook::WorkerStall, 0.3, 150);
  inj.arm(Hook::QueryThrow, 0.05);
  inj.arm(Hook::AcquireDelay, 0.3, 50);
  inj.arm(Hook::AllocThrow, 0.02);

  const Graph base = gen::rmat(9, 6, 301);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o;
  o.workers = 3;
  o.queue_capacity = 16;
  GraphService service(store, o);
  service.publish_session(session);

  constexpr int kBatches = 8;
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 48;
  std::atomic<int> violations{0};
  std::atomic<std::uint64_t> rejected_seen{0};
  std::atomic<std::uint64_t> resolved_value{0};
  std::atomic<std::uint64_t> resolved_error{0};

  std::thread writer([&] {
    Xoshiro256 rng(77);
    for (int b = 0; b < kBatches; ++b) {
      session.apply(random_batch(rng, base.num_vertices(), 96));
      service.publish_session(session);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::uint64_t last_version = 0;
      for (int i = 0; i < kQueriesPerClient; ++i) {
        Query q;
        q.algo = i % 3 == 0 ? "CC" : (i % 3 == 1 ? "BFS" : "PR");
        q.source = static_cast<VertexId>((c * 7 + i) % 32);
        if (i % 6 == 2) q.result = serve::ResultKind::Payload;
        if (i % 4 == 3) q.deadline_ms = 0.05;  // often lapses in-queue
        CancelSource cancel_src;
        if (i % 7 == 5) q.cancel = cancel_src.token();
        const std::uint64_t v_before = service.store().version();
        auto sub = service.submit(q);
        if (i % 7 == 5) cancel_src.cancel();  // cancel racing execution
        if (!sub.accepted()) {
          rejected_seen.fetch_add(1);
          continue;
        }
        try {
          const QueryResult r = sub.result.get();
          resolved_value.fetch_add(1);
          // Answers never step back behind the submit-time epoch or
          // behind this client's own history.
          if (r.version < v_before || r.version < last_version)
            violations.fetch_add(1);
          last_version = r.version;
          if (r.value <= 0.0) violations.fetch_add(1);
        } catch (const serve::ServiceError&) {
          resolved_error.fetch_add(1);  // typed failure: acceptable chaos
        } catch (...) {
          violations.fetch_add(1);  // untyped escape breaks the taxonomy
        }
      }
    });
  }
  writer.join();
  for (auto& t : clients) t.join();
  inj.disarm_all();
  // The service still works after the storm.
  EXPECT_GT(service.query({"CC", 0}).value, 0.0);
  resolved_value.fetch_add(1);  // the sanity query joins the ledger
  service.stop();

  EXPECT_EQ(violations.load(), 0);
  // Every accepted future resolved (we got here without the ctest
  // timeout), and the resolution ledger matches the service's own.
  const auto s = service.stats();
  EXPECT_EQ(s.submitted, s.completed + s.failed + s.rejected);
  EXPECT_EQ(s.completed + s.failed,
            resolved_value.load() + resolved_error.load());
  EXPECT_EQ(s.rejected, rejected_seen.load());
  // The latency sink's cumulative view counts successes only: failures,
  // sheds and rejections never enter it.
  EXPECT_EQ(service.latency().samples, s.completed);
  // The storm actually happened: deterministic seeds make these stable.
  EXPECT_GT(inj.fired(Hook::PublishDelay) + inj.fired(Hook::WorkerStall) +
                inj.fired(Hook::AcquireDelay),
            0u);
  EXPECT_GT(s.failed, 0u);  // QueryThrow / deadlines / cancels landed
  // Every lease returned even though queries threw mid-run.
  EXPECT_EQ(service.engine_pool().outstanding(), 0u);
}

// Allocation failure at payload-build time fails that query with a typed
// Internal error but never kills the worker or leaks the lease.
TEST(Chaos, AllocationFailureIsContained) {
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  inj.seed(11);
  inj.arm(Hook::AllocThrow, 1.0);

  const Graph base = gen::rmat(8, 4, 302);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o;
  o.workers = 1;
  o.cache_capacity = 0;  // uncached
  GraphService service(store, o);
  service.publish_session(session);

  Query q{"BFS", 0};
  q.result = serve::ResultKind::Payload;
  try {
    service.query(q);
    FAIL() << "expected injected allocation failure";
  } catch (const serve::ServiceError& e) {
    EXPECT_EQ(e.code(), serve::ErrorCode::Internal);
  }
  EXPECT_EQ(service.engine_pool().outstanding(), 0u);
  inj.disarm_all();
  EXPECT_GT(service.query(q).value, 0.0);
  const auto s = service.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 1u);
}

// A stalled worker widens the in-queue window: queries whose deadline
// lapses during the stall are shed unrun, and the stall itself never
// wedges the service.
TEST(Chaos, WorkerStallShedsExpiredQueriesNotTheService) {
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  inj.seed(12);
  inj.arm(Hook::WorkerStall, 1.0, 4000);  // 4 ms pause at every pickup

  const Graph base = gen::rmat(8, 4, 303);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o;
  o.workers = 1;
  o.cache_capacity = 0;  // uncached
  GraphService service(store, o);
  service.publish_session(session);

  Query doomed{"BFS", 0};
  doomed.deadline_ms = 0.5;  // < the injected stall
  auto sub = service.submit(doomed);
  ASSERT_TRUE(sub.accepted());
  try {
    sub.result.get();
    FAIL() << "expected DeadlineExceeded";
  } catch (const serve::ServiceError& e) {
    EXPECT_EQ(e.code(), serve::ErrorCode::DeadlineExceeded);
  }
  EXPECT_EQ(service.stats().shed_deadline, 1u);
  EXPECT_GE(inj.fired(Hook::WorkerStall), 1u);
  // Undeadlined queries ride out the stall.
  EXPECT_GT(service.query({"CC", 0}).value, 0.0);
  EXPECT_EQ(service.engine_pool().outstanding(), 0u);
}

// ---------------------------------------- PR 8: health under load

// A stalled worker is VISIBLE: while the injected stall holds the only
// worker, health() reports the query in flight with a growing age; once
// it completes, the heartbeat advanced and the age collapses to zero.
TEST(Chaos, HealthHeartbeatsAndStallVisibility) {
  DisarmGuard guard;
  auto& inj = FaultInjector::instance();
  inj.seed(99);

  const Graph base = gen::rmat(8, 4, 305);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o;
  o.workers = 1;
  GraphService service(store, o);
  service.publish_session(session);

  (void)service.query({"CC", 0});  // warm: engine built, worker proven
  const serve::ServiceHealth before = service.health();
  ASSERT_EQ(before.workers.size(), 1u);
  const std::uint64_t beat0 = before.workers[0].processed;

  inj.arm(Hook::WorkerStall, 1.0, 80'000);  // 80ms at pickup
  Query q{"BFS", 0};
  auto sub = service.submit(q);
  ASSERT_TRUE(sub.accepted());
  // Catch the worker mid-stall: in flight, age visibly growing.
  bool seen_stalled = false;
  for (int i = 0; i < 400 && !seen_stalled; ++i) {
    const serve::ServiceHealth h = service.health();
    if (h.in_flight == 1 && h.oldest_running_ms >= 20.0) seen_stalled = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(seen_stalled);
  (void)sub.result.get();
  inj.disarm_all();

  const serve::ServiceHealth after = service.health();
  EXPECT_GT(after.workers[0].processed, beat0);  // heartbeat advanced
  EXPECT_EQ(after.in_flight, 0u);
  EXPECT_EQ(after.oldest_running_ms, 0.0);
}

// Regression (PR 9): the per-worker heartbeat settles BEFORE the promise
// resolves, on every path — success and failure alike. A client whose
// future::get() has returned must never observe its own finished query
// still in flight: the worker used to clear busy_since_us only after
// process() returned, leaving a window where health() showed
// in_flight == 1 and a nonzero age for an already-answered query.
TEST(Chaos, HeartbeatSettlesBeforePromiseResolves) {
  DisarmGuard guard;

  const Graph base = gen::rmat(8, 4, 306);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o;
  o.workers = 1;  // one worker: any leftover busy heartbeat is OUR query
  GraphService service(store, o);
  service.publish_session(session);

  for (int i = 0; i < 50; ++i) {
    // Success path.
    auto sub = service.submit(Query{"CC", 0});
    ASSERT_TRUE(sub.accepted());
    (void)sub.result.get();
    serve::ServiceHealth h = service.health();
    EXPECT_EQ(h.in_flight, 0u) << "iteration " << i;
    EXPECT_EQ(h.oldest_running_ms, 0.0) << "iteration " << i;

    // Failure path (unknown algorithm -> fail() -> set_exception).
    auto bad = service.submit(Query{"NOPE", 0});
    ASSERT_TRUE(bad.accepted());
    EXPECT_THROW((void)bad.result.get(), serve::ServiceError);
    h = service.health();
    EXPECT_EQ(h.in_flight, 0u) << "iteration " << i;
    EXPECT_EQ(h.oldest_running_ms, 0.0) << "iteration " << i;
  }
}

// The windowed view and the SLO verdict stay coherent while faults fly
// and the flight recorder is armed: an observer hammers health() for
// range violations, the storm pushes the burn rate past 1, and the
// error-rate anomaly trips the recorder.
TEST(Chaos, WindowAndBurnRateStaySaneUnderStorm) {
  DisarmGuard guard;
  obs::RecorderOptions ro;
  ro.min_trigger_gap_ns = 0;  // let every anomaly check re-trigger
  obs::FlightRecorder::instance().arm(ro);
  struct RecorderDisarm {
    ~RecorderDisarm() { obs::FlightRecorder::instance().disarm(); }
  } rec_guard;
  auto& inj = FaultInjector::instance();
  inj.seed(0xBEEF);
  inj.arm(Hook::QueryThrow, 0.4);
  inj.arm(Hook::WorkerStall, 0.2, 100);

  const Graph base = gen::rmat(8, 4, 307);
  StreamSession session(base);
  SnapshotStore store;
  GraphServiceOptions o;
  o.workers = 3;
  o.queue_capacity = 256;  // no rejections: the ledger check is exact
  o.cache_capacity = 0;  // every query executes, so QueryThrow can land
  o.telemetry.monitor_interval_ms = 0;
  o.telemetry.anomaly_min_samples = 10;
  o.telemetry.anomaly_error_rate = 0.2;
  GraphService service(store, o);
  service.publish_session(session);

  std::atomic<std::uint64_t> sane_checks{0};
  std::atomic<int> violations{0};
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load(std::memory_order_acquire)) {
      const serve::ServiceHealth h = service.health();
      if (h.window_error_rate < 0 || h.window_error_rate > 1 ||
          h.availability < 0 || h.availability > 1 || h.burn_rate < 0 ||
          h.window_qps < 0 ||
          h.window_p50_ms > h.window_p99_ms + 1e-9 ||
          h.slow_keep_threshold_ms < 0)
        violations.fetch_add(1);
      sane_checks.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::atomic<std::uint64_t> ok{0}, failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c)
    clients.emplace_back([&, c] {
      for (int i = 0; i < 60; ++i) {
        Query q;
        q.algo = i % 2 ? "PR" : "BFS";
        q.source = static_cast<VertexId>((c + i) % 16);
        try {
          (void)service.query(q);
          ok.fetch_add(1);
        } catch (const serve::ServiceError&) {
          failed.fetch_add(1);
        }
      }
    });
  for (auto& t : clients) t.join();
  done.store(true, std::memory_order_release);
  observer.join();
  inj.disarm_all();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(sane_checks.load(), 0u);
  EXPECT_GT(failed.load(), 0u);  // the storm actually landed
  const serve::ServiceHealth h = service.health();
  EXPECT_EQ(h.window_samples, ok.load() + failed.load());
  EXPECT_GT(h.window_error_rate, 0.0);
  EXPECT_GT(h.burn_rate, 1.0);  // ~40% errors against a 0.1% budget
  EXPECT_FALSE(h.slo_healthy);
  // The error-rate anomaly tripped the armed recorder at least once.
  EXPECT_GT(obs::FlightRecorder::instance().triggers(), 0u);
  // The cumulative ledger is untouched by the windowed plane.
  const auto s = service.stats();
  EXPECT_EQ(s.submitted, s.completed + s.failed + s.rejected);
  EXPECT_EQ(s.rejected, 0u);
}

}  // namespace
}  // namespace vebo
