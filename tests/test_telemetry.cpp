// Tests for the PR 8 always-on telemetry layer: the sliding window
// (bucket rotation, per-code error rates, per-algo quantiles, fake-time
// aging), the fixed-budget SLO verdict (error burn), the reusable
// tail-sampling tracer rings and the TraceStore keep/evict policy, the
// flight recorder (window filtering, trigger rate limit, multi-thread
// export), and the end-to-end service behavior: a deliberately slowed
// UNTRACED query is auto-captured with zero opt-in, failures are kept
// with their error reason, fast queries are dropped, and anomaly storms
// trip the recorder.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/rmat.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "serve/graph_service.hpp"
#include "serve/service_error.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/session.hpp"
#include "support/fault.hpp"

namespace vebo {
namespace {

using obs::CapturedTrace;
using obs::FlightDump;
using obs::FlightRecorder;
using obs::RecorderOptions;
using obs::SlidingWindow;
using obs::SloVerdict;
using obs::Span;
using obs::SpanKind;
using obs::Trace;
using obs::Tracer;
using obs::TraceStore;
using obs::WindowOptions;
using obs::WindowSnapshot;
using serve::ErrorCode;
using serve::GraphService;
using serve::GraphServiceOptions;
using serve::Query;
using serve::QueryResult;
using serve::SnapshotStore;
using stream::StreamSession;
using Hook = FaultInjector::Hook;

constexpr std::uint64_t kSec = 1'000'000'000;

/// Disarms the process-wide singletons a test may arm, pass or fail.
struct TelemetryGuard {
  ~TelemetryGuard() {
    FaultInjector::instance().disarm_all();
    FlightRecorder::instance().disarm();
  }
};

// ------------------------------------------------------- sliding window

TEST(SlidingWindow, RatesAndQuantilesOverLiveBuckets) {
  WindowOptions wo;
  wo.buckets = 10;
  wo.bucket_ns = kSec;
  SlidingWindow w(wo, /*error_codes=*/4);
  // 8 successes at 2ms, 2 failures (codes 1 and 3) in the same second.
  for (int i = 0; i < 8; ++i) w.record(kSec, "PR", 2.0);
  w.record(kSec, "PR", 5.0, 1);
  w.record(kSec, "PR", -1.0, 3);  // rejection: no latency sample

  const WindowSnapshot s = w.snapshot(kSec);
  EXPECT_EQ(s.total, 10u);
  EXPECT_EQ(s.errors, 2u);
  EXPECT_DOUBLE_EQ(s.error_rate, 0.2);
  EXPECT_DOUBLE_EQ(s.window_s, 10.0);
  EXPECT_DOUBLE_EQ(s.qps, 1.0);  // 10 samples / 10s horizon
  ASSERT_EQ(s.errors_by_code.size(), 4u);
  EXPECT_EQ(s.errors_by_code[1], 1u);
  EXPECT_EQ(s.errors_by_code[3], 1u);
  EXPECT_EQ(s.latency_samples, 9u);  // the rejection contributed none
  // p50 decodes back into the 2ms bucket (6% log-bucket resolution).
  EXPECT_NEAR(s.p50_ms, 2.0, 0.15);
  ASSERT_EQ(s.per_algo.size(), 1u);
  EXPECT_EQ(s.per_algo[0].algo, "PR");
  EXPECT_EQ(s.per_algo[0].samples, 9u);
}

TEST(SlidingWindow, SamplesAgeOutExactlyWithTheWindow) {
  WindowOptions wo;
  wo.buckets = 5;
  wo.bucket_ns = kSec;
  SlidingWindow w(wo);
  w.record(10 * kSec, "BFS", 1.0);
  // Still visible while the window covers second 10...
  EXPECT_EQ(w.snapshot(14 * kSec).total, 1u);
  // ...gone once the window slides past it.
  EXPECT_EQ(w.snapshot(15 * kSec + 1).total, 0u);
  // A dormant gap far longer than the horizon fully resets the ring.
  w.record(100 * kSec, "BFS", 1.0);
  const WindowSnapshot s = w.snapshot(100 * kSec);
  EXPECT_EQ(s.total, 1u);
  EXPECT_EQ(s.latency_samples, 1u);
}

TEST(SlidingWindow, PerAlgoEntriesAreGarbageCollected) {
  WindowOptions wo;
  wo.buckets = 3;
  wo.bucket_ns = kSec;
  SlidingWindow w(wo);
  w.record(kSec, "BFS", 1.0);
  w.record(2 * kSec, "PR", 1.0);
  EXPECT_EQ(w.snapshot(2 * kSec).per_algo.size(), 2u);
  // BFS's samples age out; its entry must vanish, not linger at zero.
  const WindowSnapshot s = w.snapshot(5 * kSec - 1);
  ASSERT_EQ(s.per_algo.size(), 1u);
  EXPECT_EQ(s.per_algo[0].algo, "PR");
}

TEST(SlidingWindow, OutOfOrderTimestampsLandInTheCurrentBucket) {
  // record() with a stale now_ns (caller raced the clock) must not
  // resurrect cleared buckets or crash — it lands in the live ring.
  SlidingWindow w;
  w.record(20 * kSec, "PR", 1.0);
  w.record(3 * kSec, "PR", 1.0);  // far in the past
  EXPECT_EQ(w.snapshot(20 * kSec).total, 2u);
}

TEST(SlidingWindow, CodesPastTheWidthCountOnlyTowardErrors) {
  SlidingWindow w;  // error_codes = 0: no per-code breakdown
  w.record(kSec, "PR", 1.0, 2);
  const WindowSnapshot s = w.snapshot(kSec);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_TRUE(s.errors_by_code.empty());
}

// ------------------------------------------------------------------ slo

WindowSnapshot synthetic_window(std::uint64_t total, std::uint64_t errors) {
  WindowSnapshot s;
  s.total = total;
  s.errors = errors;
  s.error_rate =
      total != 0 ? static_cast<double>(errors) / static_cast<double>(total)
                 : 0.0;
  return s;
}

// The service's one SLO: 99.9% availability, judged from 32 windowed
// samples on.
TEST(Slo, NoVerdictBelowThirtyTwoSamples) {
  const SloVerdict s = obs::slo_verdict(synthetic_window(31, 31));
  EXPECT_EQ(s.availability, 1.0);
  EXPECT_EQ(s.burn_rate, 0.0);
  EXPECT_TRUE(s.healthy);  // an empty-ish window is not an outage
  const SloVerdict at_min = obs::slo_verdict(synthetic_window(32, 1));
  EXPECT_NEAR(at_min.availability, 1.0 - 1.0 / 32, 1e-12);
  EXPECT_GT(at_min.burn_rate, 1.0);
  EXPECT_FALSE(at_min.healthy);
}

TEST(Slo, ErrorBurnRateAgainstAThousandthBudget) {
  // 0.5% errors against a 0.1% budget: burning 5x too fast.
  const SloVerdict s = obs::slo_verdict(synthetic_window(1000, 5));
  EXPECT_NEAR(s.availability, 0.995, 1e-12);
  EXPECT_NEAR(s.burn_rate, 5.0, 1e-9);
  EXPECT_FALSE(s.healthy);
  // At exactly the budget, burn is 1.0 and still (barely) healthy.
  const SloVerdict edge = obs::slo_verdict(synthetic_window(1000, 1));
  EXPECT_NEAR(edge.burn_rate, 1.0, 1e-9);
  EXPECT_TRUE(edge.healthy);
  const SloVerdict clean = obs::slo_verdict(synthetic_window(1000, 0));
  EXPECT_EQ(clean.availability, 1.0);
  EXPECT_EQ(clean.burn_rate, 0.0);
  EXPECT_TRUE(clean.healthy);
}

// ------------------------------------------------- trace store + reuse

TEST(TraceStore, BoundedRingEvictsOldest) {
  TraceStore store(2);
  for (int i = 1; i <= 3; ++i) {
    CapturedTrace ct;
    ct.algo = "A" + std::to_string(i);
    store.push(std::move(ct));
  }
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.captured(), 3u);
  EXPECT_EQ(store.evicted(), 1u);
  const std::vector<CapturedTrace> recent = store.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent.front().algo, "A2");  // A1 evicted
  EXPECT_EQ(recent.back().algo, "A3");
  EXPECT_EQ(recent.back().seq, 3u);  // seq is the monotone capture number
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.captured(), 3u);  // the monotone counters survive clear
}

TEST(TracerReuse, KeepFalseDiscardsKeepTrueCollects) {
  Tracer::begin_reusing(16);
  EXPECT_TRUE(Tracer::thread_tracing());
  { obs::SpanScope s(SpanKind::CacheProbe); }
  const Trace dropped = Tracer::end_reusing(/*keep=*/false);
  EXPECT_TRUE(dropped.spans.empty());  // drop: nothing collected
  EXPECT_FALSE(Tracer::thread_tracing());

  // The ring is reused across queries; the second query's spans come
  // out clean (no leakage from the dropped one).
  Tracer::begin_reusing(16);
  { obs::SpanScope s(SpanKind::Execute); }
  { obs::SpanScope s(SpanKind::Translate); }
  const Trace kept = Tracer::end_reusing(/*keep=*/true);
  ASSERT_EQ(kept.spans.size(), 2u);
  EXPECT_EQ(kept.spans[0].kind, SpanKind::Execute);
  EXPECT_EQ(kept.spans[1].kind, SpanKind::Translate);
  EXPECT_FALSE(Tracer::thread_tracing());
}

TEST(TracerReuse, RingWrapsKeepingNewest) {
  Tracer::begin_reusing(4);
  for (int i = 0; i < 10; ++i) obs::SpanScope s(SpanKind::Iteration);
  const Trace t = Tracer::end_reusing(/*keep=*/true);
  EXPECT_EQ(t.spans.size(), 4u);  // capacity bounds the keeper
  EXPECT_EQ(t.recorded, 10u);     // but the census counts them all
}

// ------------------------------------------------------ flight recorder

Span stage_span(SpanKind kind, std::uint64_t start_ns, std::uint64_t dur_ns) {
  Span s;
  s.kind = kind;
  s.start_ns = start_ns;
  s.dur_ns = dur_ns;
  return s;
}

TEST(FlightRecorder, DumpFiltersToTheWindow) {
  TelemetryGuard guard;
  RecorderOptions ro;
  ro.ring_capacity = 64;
  ro.window_ns = 50'000'000;  // 50ms window
  FlightRecorder& rec = FlightRecorder::instance();
  rec.arm(ro);

  const std::uint64_t now = obs::detail::now_ns();
  // One span that ended long before the window, one fresh.
  rec.record(stage_span(SpanKind::Execute, now - kSec, 1000));
  rec.record(stage_span(SpanKind::Publish, now - 1000, 500));
  const FlightDump d = rec.dump("test");
  ASSERT_EQ(d.spans.size(), 1u);
  EXPECT_EQ(d.spans[0].span.kind, SpanKind::Publish);
  EXPECT_EQ(d.threads, 1u);
  EXPECT_EQ(d.reason, "test");

  const std::string json = obs::to_chrome_trace_json(d);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"publish\""), std::string::npos);
  EXPECT_EQ(json.find("\"execute\""), std::string::npos);  // aged out
}

TEST(FlightRecorder, MultiThreadDumpKeepsPerThreadRows) {
  TelemetryGuard guard;
  FlightRecorder& rec = FlightRecorder::instance();
  rec.arm({});
  const std::uint64_t now = obs::detail::now_ns();
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5; ++i)
        rec.record(
            stage_span(SpanKind::Execute, now + t * 100 + i, 10));
    });
  for (auto& t : threads) t.join();
  const FlightDump d = rec.dump("threads");
  EXPECT_EQ(d.spans.size(), 15u);
  EXPECT_EQ(d.threads, 3u);
  // Start-ordered across threads.
  for (std::size_t i = 1; i < d.spans.size(); ++i)
    EXPECT_GE(d.spans[i].span.start_ns, d.spans[i - 1].span.start_ns);
}

TEST(FlightRecorder, RingWrapCountsDropped) {
  TelemetryGuard guard;
  RecorderOptions ro;
  ro.ring_capacity = 8;
  FlightRecorder& rec = FlightRecorder::instance();
  rec.arm(ro);
  const std::uint64_t now = obs::detail::now_ns();
  for (int i = 0; i < 20; ++i)
    rec.record(stage_span(SpanKind::Execute, now + i, 1));
  const FlightDump d = rec.dump("wrap");
  EXPECT_EQ(d.spans.size(), 8u);
  EXPECT_EQ(d.dropped, 12u);
  // The ring kept the NEWEST 8.
  EXPECT_EQ(d.spans.front().span.start_ns, now + 12);
}

TEST(FlightRecorder, TriggerIsRateLimitedDumpIsNot) {
  TelemetryGuard guard;
  RecorderOptions ro;
  ro.min_trigger_gap_ns = 3600u * kSec;  // effectively once per test run
  FlightRecorder& rec = FlightRecorder::instance();
  rec.arm(ro);
  rec.record(stage_span(SpanKind::Execute, obs::detail::now_ns(), 10));
  const std::uint64_t dumps_before = rec.dumps();
  EXPECT_TRUE(rec.trigger("first"));
  EXPECT_FALSE(rec.trigger("suppressed"));  // inside the gap
  EXPECT_EQ(rec.dumps(), dumps_before + 1);
  EXPECT_EQ(rec.last_dump().reason, "first");
  // Explicit dump() ignores the gap — it is the human-asked path.
  (void)rec.dump("manual");
  EXPECT_EQ(rec.dumps(), dumps_before + 2);
}

TEST(FlightRecorder, DisarmedRecordIsANoOp) {
  FlightRecorder& rec = FlightRecorder::instance();
  ASSERT_FALSE(rec.armed());
  rec.record(stage_span(SpanKind::Execute, obs::detail::now_ns(), 10));
  // StageScope sites are dead too: no thread trace, no recorder.
  obs::StageScope scope(SpanKind::Execute);
  EXPECT_FALSE(scope.live());
}

// -------------------------------------------- end-to-end tail sampling

std::unique_ptr<Graph> make_graph(int scale, int deg, std::uint64_t seed) {
  return std::make_unique<Graph>(gen::rmat(scale, deg, seed));
}

GraphServiceOptions sampling_opts() {
  GraphServiceOptions o;
  o.workers = 2;
  o.telemetry.monitor_interval_ms = 0;   // re-check every completion
  o.telemetry.keep_min_samples = 8;      // warm up fast in tests
  o.telemetry.keep_min_ms = 1.0;
  return o;
}

TEST(TailSampling, SlowQueryIsCapturedWithZeroOptIn) {
  TelemetryGuard guard;
  SnapshotStore store;
  StreamSession session(*make_graph(8, 4, 21));
  GraphServiceOptions o = sampling_opts();
  // A short window (5 x 100ms) so the expensive FIRST query (engine
  // build, cache miss) ages out of the rolling p99 before the capture
  // phase; a 5ms floor absorbs scheduler hiccups on cache hits.
  o.telemetry.window_opts.buckets = 5;
  o.telemetry.window_opts.bucket_ns = 100'000'000;
  o.telemetry.keep_min_ms = 5.0;
  GraphService service(store, o);
  service.publish_session(session);

  // Warm up (includes the slow first miss), let it age out, then feed
  // the window fast cache hits until the keep threshold reflects them.
  Query fast;
  fast.algo = "PR";
  for (int i = 0; i < 10; ++i) (void)service.query(fast);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  for (int i = 0; i < 10; ++i) (void)service.query(fast);
  const double threshold = service.health().slow_keep_threshold_ms;
  ASSERT_GT(threshold, 0.0);   // rolling p99 x factor, floored at 5ms
  ASSERT_LT(threshold, 100.0); // and far below the stall we inject
  const std::uint64_t captured_before = service.trace_store().captured();

  // One UNTRACED query stalled past the threshold via the fault
  // injector: tail sampling must keep it on its own.
  FaultInjector::instance().arm(Hook::WorkerStall, 1.0, 100'000);
  Query slow;
  slow.algo = "CC";
  (void)service.query(slow);
  FaultInjector::instance().disarm_all();

  ASSERT_GT(service.trace_store().captured(), captured_before);
  const CapturedTrace ct = service.trace_store().recent().back();
  EXPECT_EQ(ct.algo, "CC");
  EXPECT_EQ(ct.reason, "slow");
  EXPECT_GE(ct.latency_ms, 100.0);
  ASSERT_FALSE(ct.trace.spans.empty());
  // The stall shows up as queue-wait forensics in the kept trace.
  bool queue_wait = false;
  for (const Span& s : ct.trace.spans)
    if (s.kind == SpanKind::QueueWait && s.dur_ns >= 100'000'000)
      queue_wait = true;
  EXPECT_TRUE(queue_wait);
  // And the keeper exports like any trace.
  const std::string json = obs::to_chrome_trace_json(ct.trace);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
}

TEST(TailSampling, BurstShorterThanMonitorIntervalStillArmsSlowKeep) {
  TelemetryGuard guard;
  SnapshotStore store;
  StreamSession session(*make_graph(8, 4, 25));
  GraphServiceOptions o = sampling_opts();
  // An interval far longer than the test: the steady-state rate limit
  // must not double as a cold-start delay. The first settle past
  // keep_min_samples has to arm the slow-keep threshold even though the
  // interval never elapses — a short burst followed by one slow query
  // (the trace demo's exact shape) is the regression.
  o.telemetry.monitor_interval_ms = 60'000;
  o.telemetry.keep_min_ms = 5.0;  // absorb scheduler hiccups on cache hits
  GraphService service(store, o);
  service.publish_session(session);

  Query fast;
  fast.algo = "PR";
  for (int i = 0; i < 12; ++i) (void)service.query(fast);  // > min_samples=8
  ASSERT_GT(service.health().slow_keep_threshold_ms, 0.0);

  FaultInjector::instance().arm(Hook::WorkerStall, 1.0, 100'000);
  Query slow;
  slow.algo = "CC";
  (void)service.query(slow);
  FaultInjector::instance().disarm_all();

  ASSERT_EQ(service.trace_store().captured(), 1u);
  EXPECT_EQ(service.trace_store().recent().back().reason, "slow");
}

TEST(TailSampling, FailuresAreKeptWithTheirReason) {
  TelemetryGuard guard;
  SnapshotStore store;
  StreamSession session(*make_graph(8, 4, 22));
  GraphService service(store, sampling_opts());
  service.publish_session(session);

  Query bad;
  bad.algo = "NOPE";  // BadRequest in-worker: no warm-up needed
  EXPECT_THROW((void)service.query(bad), serve::ServiceError);
  ASSERT_EQ(service.trace_store().captured(), 1u);
  EXPECT_EQ(service.trace_store().recent().front().reason,
            "error:bad-request");

  FaultInjector::instance().arm(Hook::QueryThrow, 1.0);
  Query doomed;
  doomed.algo = "PR";
  EXPECT_THROW((void)service.query(doomed), serve::ServiceError);
  FaultInjector::instance().disarm_all();
  EXPECT_EQ(service.trace_store().captured(), 2u);
  EXPECT_EQ(service.trace_store().recent().back().reason, "error:internal");
}

TEST(TailSampling, ExplicitTraceStillWinsAndIsNotDoubleStored) {
  TelemetryGuard guard;
  SnapshotStore store;
  StreamSession session(*make_graph(8, 4, 23));
  GraphService service(store, sampling_opts());
  service.publish_session(session);

  Query traced;
  traced.algo = "PR";
  traced.trace = true;
  const QueryResult r = service.query(traced);
  ASSERT_NE(r.trace, nullptr);  // the opt-in contract is unchanged
  EXPECT_FALSE(r.trace->spans.empty());
  EXPECT_EQ(service.trace_store().captured(), 0u);
}

TEST(TailSampling, DisabledMeansNoCaptures) {
  TelemetryGuard guard;
  SnapshotStore store;
  StreamSession session(*make_graph(8, 4, 24));
  GraphServiceOptions o = sampling_opts();
  o.telemetry.tail_sampling = false;
  GraphService service(store, o);
  service.publish_session(session);

  Query bad;
  bad.algo = "NOPE";
  EXPECT_THROW((void)service.query(bad), serve::ServiceError);
  EXPECT_EQ(service.trace_store().captured(), 0u);
}

TEST(Anomaly, ErrorRateSpikeTripsTheRecorder) {
  TelemetryGuard guard;
  RecorderOptions ro;
  ro.min_trigger_gap_ns = 0;  // let the storm re-trigger freely
  FlightRecorder::instance().arm(ro);

  SnapshotStore store;
  StreamSession session(*make_graph(8, 4, 25));
  GraphServiceOptions o = sampling_opts();
  o.telemetry.anomaly_min_samples = 5;
  o.telemetry.anomaly_error_rate = 0.5;
  GraphService service(store, o);
  service.publish_session(session);

  const std::uint64_t triggers_before = FlightRecorder::instance().triggers();
  FaultInjector::instance().arm(Hook::QueryThrow, 1.0);
  Query doomed;
  doomed.algo = "PR";
  for (int i = 0; i < 10; ++i)
    EXPECT_THROW((void)service.query(doomed), serve::ServiceError);
  FaultInjector::instance().disarm_all();

  EXPECT_GT(FlightRecorder::instance().triggers(), triggers_before);
  const FlightDump d = FlightRecorder::instance().last_dump();
  EXPECT_EQ(d.reason, "error-rate-spike");
  EXPECT_FALSE(d.spans.empty());  // the window holds the storm's stages
}

}  // namespace
}  // namespace vebo
