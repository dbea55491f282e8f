#include "serve/graph_service.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "algorithms/registry.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace vebo::serve {

namespace {

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t code_index(ErrorCode c) { return static_cast<std::size_t>(c); }

}  // namespace

const char* to_string(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::Accepted: return "accepted";
    case SubmitStatus::QueueFull: return "queue-full";
    case SubmitStatus::Stopped: return "stopped";
  }
  return "?";
}

GraphService::GraphService(SnapshotStore& store, GraphServiceOptions opts)
    : store_(store),
      opts_(opts),
      pool_([&] {
        EnginePoolOptions eopts = opts.engine;
        // A worker must always be able to lease an engine, else a full
        // pool could park every worker and starve the queue.
        eopts.max_engines = std::max(eopts.max_engines, opts.workers);
        return eopts;
      }()),
      cache_(opts.cache_capacity),
      slo_(opts.telemetry.slo),
      trace_store_(opts.telemetry.trace_store_capacity) {
  if (opts_.telemetry.window) {
    // The per-code dimension always matches this service's error codes;
    // callers tune bucket count/width only.
    obs::WindowOptions wopts = opts_.telemetry.window_opts;
    wopts.error_codes = kNumErrorCodes;
    window_ = std::make_unique<obs::SlidingWindow>(wopts);
  }
  VEBO_CHECK(opts_.workers >= 1, "GraphService: workers must be >= 1");
  VEBO_CHECK(opts_.queue_capacity >= 1,
             "GraphService: queue_capacity must be >= 1");
  VEBO_CHECK(!opts_.enable_cache || opts_.cache_capacity >= 1,
             "GraphService: cache_capacity must be >= 1 "
             "(set enable_cache = false to serve uncached)");
  workers_.reserve(opts_.workers);
  worker_state_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i)
    worker_state_.push_back(std::make_unique<WorkerState>());
  for (std::size_t i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  // Register on the metrics plane last: a scrape can land the moment the
  // collector exists, so the service must already be fully built.
  if (opts_.metrics != nullptr)
    metrics_reg_ = opts_.metrics->add_collector(
        [this](std::vector<obs::MetricSample>& out) { collect_metrics(out); });
}

GraphService::~GraphService() { stop(); }

Submission GraphService::submit(Query q) {
  Submission sub;
  Item item;
  // The deadline is made absolute at admission: queue wait counts
  // against the budget, and the shed check / superstep polls compare
  // against one fixed time point. A budget past the clock's range (or
  // +inf) has no time point to name: it runs without a deadline. The
  // min() absorbs the rounding of `room` in the double comparison.
  if (q.deadline_ms > 0) {
    using Clock = QueryContext::Clock;
    const Clock::time_point now = Clock::now();
    const Clock::duration room = Clock::time_point::max() - now;
    const std::chrono::duration<double, std::milli> budget(q.deadline_ms);
    if (budget < room)
      item.ctx.set_deadline(
          now + std::min(room, std::chrono::duration_cast<Clock::duration>(
                                   budget)));
  }
  if (q.cancel.can_be_cancelled()) item.ctx.set_cancel_token(q.cancel);
  // The enqueue stamp reuses the admission Timer's start (same steady
  // epoch) — no clock read, so it is unconditional. Whether anything
  // consumes it (queue-wait span, trace base) is decided at pickup.
  item.enqueued_ns = item.submitted.start_ns();
  item.q = std::move(q);
  sub.result = item.promise.get_future();
  // Ledger discipline (see GraphServiceStats): a query enters the books
  // in the SAME critical section that decides its admission, as either
  // {submitted, in_flight} or {submitted, rejected}. The accepted-path
  // count nests stats_mutex_ inside queue_mutex_ so a worker cannot
  // complete the query (it cannot even pop it) before it is counted —
  // an observer can therefore never see completed+failed+rejected+
  // in_flight drift from submitted.
  {
    MutexLock lk(queue_mutex_);
    if (stopping_) {
      sub.status = SubmitStatus::Stopped;
    } else if (queue_.size() >= opts_.queue_capacity) {
      // Explicit backpressure: the caller sees the rejection immediately
      // instead of blocking inside the service.
      sub.status = SubmitStatus::QueueFull;
    } else {
      sub.status = SubmitStatus::Accepted;
      {
        MutexLock slk(stats_mutex_);
        ++stats_.submitted;
        ++stats_.in_flight;
      }
      queue_.push_back(std::move(item));
    }
  }
  if (sub.status == SubmitStatus::Accepted) {
    queue_cv_.notify_one();
    return sub;
  }
  {
    MutexLock lk(stats_mutex_);
    ++stats_.submitted;
    ++stats_.rejected;
    // Rejections carry no future, so the code lands in the counter only
    // (nothing to attach a ServiceError to).
    ++stats_.errors_by_code[code_index(ErrorCode::Overloaded)];
  }
  // Rejections count toward the windowed error rate (they ARE client-
  // visible failures) but carry no latency sample.
  observe_settled(item.q.algo, -1.0, code_index(ErrorCode::Overloaded));
  sub.result = {};  // rejected submissions carry no future
  return sub;
}

QueryResult GraphService::query(Query q) {
  Submission sub = submit(std::move(q));
  if (!sub.accepted())
    throw ServiceError(ErrorCode::Overloaded,
                       std::string("GraphService: query rejected (") +
                           to_string(sub.status) + ")");
  return sub.result.get();
}

std::uint64_t GraphService::publish(
    std::shared_ptr<const Graph> graph, order::Partitioning partitioning,
    std::shared_ptr<const Permutation> perm, const algo::EdgeDelta* delta) {
  // Stream-path stage span (writer thread): covers the store publish
  // AND the cache invalidation/refresh that makes the epoch visible.
  // StageScope, not SpanScope: the flight recorder sees publishes too.
  Timer wall;
  std::uint64_t v = 0;
  // Keep a handle on the new permutation past the moves below: the
  // refresh path re-translates payloads through it.
  const std::shared_ptr<const Permutation> perm_copy = perm;
  {
    obs::StageScope span(obs::SpanKind::Publish);
    const std::uint64_t prev_v = store_.version();
    v = store_.publish(std::move(graph), std::move(partitioning),
                       std::move(perm));
    if (span.live()) span.span().a = v;
    if (opts_.refresh_on_publish && opts_.enable_cache && delta != nullptr)
      refresh_cache(prev_v, v, *delta, perm_copy);
    else
      invalidate_cache();
  }
  // Anomaly trigger: a stalled publish means readers are pinned to an
  // aging epoch — exactly the moment to freeze the black box.
  if (wall.elapsed_ms() >= opts_.telemetry.anomaly_publish_stall_ms) {
    obs::FlightRecorder& rec = obs::FlightRecorder::instance();
    if (rec.armed()) rec.trigger("publish-stall");
  }
  return v;
}

std::uint64_t GraphService::publish_session(stream::StreamSession& session) {
  // shared_snapshot() refreshes on the calling (writer) thread, so all
  // snapshot+reorder cost lands here, never on a reader.
  std::shared_ptr<const Graph> snap = session.shared_snapshot();
  auto perm = std::make_shared<const Permutation>(
      session.maintainer().ordering().perm);
  // Drain unconditionally, not just in refresh mode: the accumulator
  // must reset at every publish boundary so a later mode flip cannot
  // see a delta spanning several epochs.
  const algo::EdgeDelta delta = session.drain_delta();
  return publish(std::move(snap), session.maintainer().partitioning(),
                 std::move(perm), &delta);
}

void GraphService::stop() {
  MutexLock stop_lk(stop_mutex_);
  {
    MutexLock lk(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void GraphService::worker_loop(std::size_t worker_idx) {
  WorkerState& ws = *worker_state_[worker_idx];
  for (;;) {
    Item item;
    {
      // Open-coded wait predicate: a lambda body is a separate function
      // to the thread-safety analysis, so the guarded reads live here,
      // where the capability is visibly held.
      MutexLock lk(queue_mutex_);
      while (!stopping_ && queue_.empty()) queue_cv_.wait(lk.native_lock());
      if (queue_.empty()) return;  // stopping_ && drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    // Heartbeat: busy from pickup until settle_heartbeat() right before
    // promise resolution, so health().oldest_running_ms sees queue-stall
    // and run time alike, and a returned future::get() never observes
    // its own query still in flight.
    ws.pickup_us = steady_now_us();
    ws.busy_since_us.store(ws.pickup_us, std::memory_order_release);
    // Chaos hook: a stalled worker between pickup and execution — the
    // window where deadlines lapse after the queue check would pass.
    // The in-flight heartbeat keeps the pre-stall stamp (health must
    // see the age grow), but the telemetry pickup stamp moves past the
    // stall so the kept trace attributes it to queue-side wait.
    if (FaultInjector::instance().delay_point(
            FaultInjector::Hook::WorkerStall))
      ws.pickup_us = steady_now_us();
    // Every process() path settles the heartbeat itself (see
    // settle_heartbeat): it must happen BEFORE the promise resolves,
    // which only process() can order.
    process(item, ws);
  }
}

void GraphService::settle_heartbeat(WorkerState& ws) {
  ws.processed.fetch_add(1, std::memory_order_relaxed);
  ws.busy_since_us.store(-1, std::memory_order_release);
}

void GraphService::process(Item& item, WorkerState& ws) {
  // Arm the worker's trace BEFORE the shed checks: a shed query's
  // capture (queue-wait only) is still forensics — it shows the wait
  // that killed it. Opt-in tracing (Query::trace) uses the full-size
  // RAII trace and returns the spans on the result; tail sampling uses
  // the thread's reusable ring and settles at completion (keep into
  // trace_store_ or drop). Mutually exclusive by construction.
  std::optional<obs::ThreadTrace> trace;
  const bool sampling = !item.q.trace && opts_.telemetry.tail_sampling;
  if (item.q.trace)
    trace.emplace();
  else if (sampling)
    // Reuse the enqueue stamp as the trace base: saves a clock read per
    // query and lines the queue-wait span up at t=0 in the export.
    obs::Tracer::begin_reusing(opts_.telemetry.sample_ring_capacity,
                               item.enqueued_ns);
  // The armed path pays NO extra clock read here: the worker loop
  // already stamped pickup for the in-flight heartbeat, so the
  // queue-wait end (which doubles as the cache-probe start below; the
  // probe's end on a hit is derived from the completion latency) is
  // that same stamp, clamped against sub-microsecond truncation.
  std::uint64_t pickup_ns = 0;
  if (item.enqueued_ns != 0 && obs::stage_wanted()) {
    // The wait already happened, so record it with explicit stamps (its
    // start predates the trace; the exporter clamps). record_stage
    // routes it to the thread's trace AND the flight recorder.
    pickup_ns = std::max(
        item.enqueued_ns, static_cast<std::uint64_t>(ws.pickup_us) * 1000);
    obs::Span s;
    s.kind = obs::SpanKind::QueueWait;
    s.start_ns = item.enqueued_ns;
    s.dur_ns = pickup_ns - item.enqueued_ns;
    obs::record_stage(s);
  }
  // Shed before execution: a queued query whose client already gave up
  // (cancel fired / deadline lapsed) must fail fast — no snapshot pin,
  // no engine lease, no run.
  if (item.ctx.cancelled()) {
    {
      MutexLock lk(stats_mutex_);
      ++stats_.shed_cancelled;
    }
    fail(item, ErrorCode::Cancelled, "query cancelled while queued", sampling,
         ws);
    return;
  }
  if (item.ctx.deadline_expired()) {
    {
      MutexLock lk(stats_mutex_);
      ++stats_.shed_deadline;
    }
    fail(item, ErrorCode::DeadlineExceeded,
         "query deadline expired while queued (shed before execution)",
         sampling, ws);
    return;
  }
  try {
    QueryResult r;
    const SnapshotRef snap = store_.acquire();
    if (!snap)
      throw ServiceError(ErrorCode::NoSnapshot,
                         "GraphService: no snapshot published yet");
    const algo::AlgorithmSpec* spec = algo::find_spec(item.q.algo);
    if (spec == nullptr)
      throw ServiceError(ErrorCode::BadRequest,
                         "GraphService: unknown algorithm code: " +
                             item.q.algo);

    // Validate against the schema (throws on unknown/ill-typed params,
    // fills defaults) with the legacy `source` field folded in. The
    // normalized set stays in ORIGINAL ids — it is the client-visible
    // identity of the query, and what the cache keys on. Validation
    // failures are the client's fault: BadRequest, never Internal.
    algo::QueryParams norm;
    const bool takes_source = spec->params.find("source") != nullptr;
    const Permutation* perm = snap.perm();
    VertexId source = 0;
    try {
      algo::QueryParams raw = item.q.params;
      if (takes_source && !raw.has("source"))
        raw.set("source", item.q.source);
      norm = spec->params.validate(raw);
      if (takes_source) {
        source = norm.get_vertex("source");
        if (perm != nullptr) {
          VEBO_CHECK(source < static_cast<VertexId>(perm->size()),
                     "GraphService: source out of range");
          source = (*perm)[source];
        }
        VEBO_CHECK(source < snap.graph().num_vertices(),
                   "GraphService: source out of range");
      }
    } catch (const Error& e) {
      throw ServiceError(ErrorCode::BadRequest, e.what());
    }
    r.version = snap.version();

    const CacheKey key = CacheKey::make(spec->code, norm);
    const bool want_payload = item.q.result == ResultKind::Payload;
    bool hit = false;
    // Probe span stamps by hand, not StageScope: the start reuses the
    // pickup read, and a HIT's end is derived from the completion
    // latency (recorded below, once latency is known) — zero extra
    // clock reads on the cache-hit hot path. A miss pays one read here,
    // noise next to the execution that follows.
    std::uint64_t probe_start = 0;
    if (opts_.enable_cache) {
      if (pickup_ns != 0)
        probe_start = pickup_ns;
      else if (obs::stage_wanted())
        probe_start = obs::Tracer::now_ns();
      {
        MutexLock lk(cache_mutex_);
        if (cache_version_ == snap.version()) {
          if (const ResultCache::Value* v = cache_.find(key)) {
            r.value = v->checksum;
            if (want_payload) r.payload = v->payload;
            hit = true;
          }
        }
      }
      if (probe_start != 0 && !hit) {
        obs::Span s;
        s.kind = obs::SpanKind::CacheProbe;
        s.start_ns = probe_start;
        const std::uint64_t now = obs::Tracer::now_ns();
        s.dur_ns = now > probe_start ? now - probe_start : 0;
        s.a = 0;
        obs::record_stage(s);
      }
    }
    if (!hit) {
      // Execution-space params: the source translated to its snapshot
      // position. Payload vertex ids come back in snapshot space and are
      // translated once, here in the worker — never under the cache lock.
      algo::QueryParams exec = norm;
      if (takes_source) exec.set("source", source);
      // Lease span with explicit stamps (a scoped span would have to
      // outlive this statement or force a move of the lease).
      const std::uint64_t lease_start =
          obs::stage_wanted() ? obs::Tracer::now_ns() : 0;
      EnginePool::Lease lease = pool_.lease(snap);
      if (lease_start != 0) {
        obs::Span s;
        s.kind = obs::SpanKind::EngineLease;
        s.start_ns = lease_start;
        s.dur_ns = obs::Tracer::now_ns() - lease_start;
        s.a = snap.version();
        obs::record_stage(s);
      }
      // Chaos hook: a query that fails after the lease was taken — the
      // lease must come back via RAII (invariant: outstanding() drains
      // to zero whatever happens below).
      FaultInjector::instance().failure_point(
          FaultInjector::Hook::QueryThrow, "query execution");
      algo::QueryPayload payload;
      {
        obs::StageScope run(obs::SpanKind::Execute);
        if (run.live()) run.span().a = snap.version();
        // Bind the query's context for the duration of the run: the
        // framework entry points and the algorithms' hand-rolled loops
        // poll it between supersteps, so cancellation / deadline expiry
        // stops the traversal within one superstep. RAII unbind keeps a
        // cancelled run from leaking its context into the engine's next
        // lease.
        Engine::ContextBinding bind(lease.engine(), item.ctx);
        payload = spec->run(lease.engine(), exec, item.ctx);
      }
      lease.release();
      std::shared_ptr<const algo::QueryPayload> shared;
      {
        obs::StageScope tr(obs::SpanKind::Translate);
        if (tr.live()) {
          std::uint64_t nvert = 0;
          switch (payload.kind()) {
            case algo::PayloadKind::VertexDoubles:
              nvert = payload.doubles().size();
              break;
            case algo::PayloadKind::VertexIds:
              nvert = payload.ids().size();
              break;
            default: break;
          }
          tr.span().a = nvert;
        }
        // The fold runs in snapshot order — the order the legacy surface
        // sums in — so checksums stay byte-identical across orderings.
        r.value = spec->checksum(payload);
        // Translation is skipped entirely when nobody will see the
        // payload (checksum-only query, cache off) — scalar answers stay
        // cheap.
        // Chaos hook: allocation failure at the one serve-path allocation
        // that scales with the answer (per-vertex payload copy).
        FaultInjector::instance().failure_point(
            FaultInjector::Hook::AllocThrow, "payload allocation");
        if (want_payload || opts_.enable_cache)
          shared = std::make_shared<const algo::QueryPayload>(
              perm != nullptr
                  ? algo::translate_to_original_ids(payload, *perm)
                  : std::move(payload));
      }
      if (want_payload) r.payload = shared;
      if (opts_.enable_cache) {
        std::uint64_t evicted_before = 0, evicted_after = 0;
        {
          MutexLock lk(cache_mutex_);
          evicted_before = cache_.evictions();
          if (cache_version_ != snap.version()) {
            // First entry for a new epoch (or a publish raced us): start a
            // fresh cache generation. An older-epoch result is simply not
            // cached — snap.version() < cache_version_ must never
            // resurrect entries for a superseded graph.
            if (cache_version_ < snap.version()) {
              cache_.clear();
              cache_version_ = snap.version();
              // Whatever opened this epoch (a wipe, or a publish straight
              // into the store) recorded no permutation for it; a later
              // refresh must assume it changed.
              cache_perm_known_ = false;
              cache_.insert(key, {r.value, shared, spec->code, norm});
            }
          } else {
            cache_.insert(key, {r.value, shared, spec->code, norm});
          }
          evicted_after = cache_.evictions();
        }
        if (evicted_after != evicted_before) {
          MutexLock slk(stats_mutex_);
          stats_.evictions += evicted_after - evicted_before;
        }
      }
    }
    r.cache_hit = hit;
    r.latency_ms = item.submitted.elapsed_ms();
    // Completion stamp derived from the latency read above; the hit
    // probe span and the window record reuse it rather than reading the
    // clock twice more on the hot path.
    const std::uint64_t settled_ns =
        item.enqueued_ns +
        static_cast<std::uint64_t>(r.latency_ms * 1e6);
    if (hit && probe_start != 0) {
      // The hit probe span closes at completion (lookup through the
      // books); `a = 1` marks the hit.
      obs::Span s;
      s.kind = obs::SpanKind::CacheProbe;
      s.start_ns = probe_start;
      s.dur_ns = settled_ns > probe_start ? settled_ns - probe_start : 0;
      s.a = 1;
      obs::record_stage(s);
    }
    record(r.latency_ms, ws);
    {
      MutexLock lk(stats_mutex_);
      ++stats_.completed;
      --stats_.in_flight;
      if (hit) ++stats_.cache_hits;
    }
    // Close the trace before resolving the promise so the client's
    // future carries the complete span set. Tail samples settle here
    // too: keep iff over the rolling threshold, drop otherwise.
    if (trace) r.trace = std::make_shared<const obs::Trace>(trace->finish());
    if (sampling)
      settle_sample(item, r.latency_ms, /*ok=*/true, ErrorCode::Internal,
                    r.version);
    observe_settled(item.q.algo, r.latency_ms, obs::SlidingWindow::kOk,
                    settled_ns);
    settle_heartbeat(ws);
    item.promise.set_value(r);
  } catch (const ServiceError& e) {
    // Already typed: count the code and hand the original object on.
    {
      MutexLock lk(stats_mutex_);
      ++stats_.failed;
      --stats_.in_flight;
      ++stats_.errors_by_code[code_index(e.code())];
    }
    const double lat_ms = item.submitted.elapsed_ms();
    if (sampling) settle_sample(item, lat_ms, /*ok=*/false, e.code(), 0);
    observe_settled(item.q.algo, lat_ms, code_index(e.code()));
    settle_heartbeat(ws);
    item.promise.set_exception(std::current_exception());
  } catch (const CancelledError& e) {
    // Cooperative checkpoint fired mid-run (within one superstep of the
    // cancel); retype so clients branch on code().
    fail(item, ErrorCode::Cancelled, e.what(), sampling, ws);
  } catch (const DeadlineExceededError& e) {
    fail(item, ErrorCode::DeadlineExceeded, e.what(), sampling, ws);
  } catch (const std::exception& e) {
    // Algorithm throw, translation failure, allocation failure, injected
    // fault — anything that escaped the run. The engine lease and the
    // snapshot pin were released by RAII on the unwind.
    fail(item, ErrorCode::Internal, e.what(), sampling, ws);
  } catch (...) {
    fail(item, ErrorCode::Internal, "unknown exception", sampling, ws);
  }
}

void GraphService::fail(Item& item, ErrorCode code, const std::string& what,
                        bool sampled, WorkerState& ws) {
  {
    MutexLock lk(stats_mutex_);
    ++stats_.failed;
    --stats_.in_flight;
    ++stats_.errors_by_code[code_index(code)];
  }
  const double lat_ms = item.submitted.elapsed_ms();
  // Failures always keep their tail sample — a failed query IS the
  // forensic case tail sampling exists for.
  if (sampled) settle_sample(item, lat_ms, /*ok=*/false, code, 0);
  observe_settled(item.q.algo, lat_ms, code_index(code));
  settle_heartbeat(ws);
  // set_exception, not throw: the worker thread must survive the failure
  // and the client must see it — exactly once each.
  item.promise.set_exception(
      std::make_exception_ptr(ServiceError(code, what)));
}

void GraphService::settle_sample(Item& item, double latency_ms, bool ok,
                                 ErrorCode code, std::uint64_t version) {
  if (!obs::Tracer::thread_tracing()) return;  // never double-settle
  bool keep = false;
  std::string reason;
  if (!ok) {
    keep = true;
    reason = code == ErrorCode::DeadlineExceeded
                 ? "deadline"
                 : std::string("error:") + to_string(code);
  } else {
    const std::uint64_t thr =
        keep_threshold_us_.load(std::memory_order_relaxed);
    if (thr != kNoThreshold &&
        latency_ms * 1000.0 > static_cast<double>(thr)) {
      keep = true;
      reason = "slow";
    }
  }
  // keep=false is the hot path: disarm, retain the ring, copy nothing.
  obs::Trace t = obs::Tracer::end_reusing(keep);
  if (!keep) return;
  obs::CapturedTrace ct;
  ct.trace = std::move(t);
  ct.algo = item.q.algo;
  ct.reason = std::move(reason);
  ct.latency_ms = latency_ms;
  ct.version = version;
  trace_store_.push(std::move(ct));
}

void GraphService::observe_settled(const std::string& algo, double latency_ms,
                                   std::size_t code, std::uint64_t now_ns) {
  if (window_ == nullptr) return;
  // Hot callers pass the stamp they already derived; rare paths
  // (failures, rejections) let us read the clock here.
  const std::uint64_t now = now_ns != 0 ? now_ns : obs::Tracer::now_ns();
  window_->record(now, algo, latency_ms, code);
  maybe_monitor(now);
}

void GraphService::maybe_monitor(std::uint64_t now_ns) {
  const auto now_us = static_cast<std::int64_t>(now_ns / 1000);
  std::int64_t last = last_monitor_us_.load(std::memory_order_relaxed);
  // The interval is a steady-state rate limit, not a cold-start delay:
  // while the keep threshold is still "failures only" the window hasn't
  // produced keep_min_samples of evidence yet, so re-evaluate on every
  // settle — the first settle past the minimum arms slow-keep. A burst
  // shorter than the interval must not leave the whole run unarmed.
  const bool cold =
      keep_threshold_us_.load(std::memory_order_relaxed) == kNoThreshold;
  if (last != 0 && !cold &&
      static_cast<double>(now_us - last) <
          opts_.telemetry.monitor_interval_ms * 1000.0)
    return;
  // One winner per interval; losers skip (the winner's pass covers them).
  if (!last_monitor_us_.compare_exchange_strong(last, now_us,
                                                std::memory_order_relaxed))
    return;
  const obs::WindowSnapshot w = window_->snapshot(now_ns);
  // Rolling tail-sampling keep threshold: windowed p99 x factor with an
  // absolute floor; "failures only" until the window has evidence.
  if (w.latency_samples >= opts_.telemetry.keep_min_samples) {
    const double thr_ms =
        std::max(w.p99_ms * opts_.telemetry.keep_latency_factor,
                 opts_.telemetry.keep_min_ms);
    keep_threshold_us_.store(static_cast<std::uint64_t>(thr_ms * 1000.0),
                             std::memory_order_relaxed);
  } else {
    keep_threshold_us_.store(kNoThreshold, std::memory_order_relaxed);
  }
  // Anomaly triggers -> the process flight recorder (rate-limited there).
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  if (!rec.armed()) return;
  if (w.total >= opts_.telemetry.anomaly_min_samples &&
      w.error_rate >= opts_.telemetry.anomaly_error_rate)
    rec.trigger("error-rate-spike");
  if (oldest_running_ms_now() >= opts_.telemetry.anomaly_in_flight_age_ms)
    rec.trigger("in-flight-age");
}

double GraphService::oldest_running_ms_now() const {
  const std::int64_t now_us = steady_now_us();
  double oldest = 0;
  for (const auto& ws : worker_state_) {
    const std::int64_t since =
        ws->busy_since_us.load(std::memory_order_acquire);
    if (since >= 0)
      oldest = std::max(
          oldest,
          static_cast<double>(std::max<std::int64_t>(0, now_us - since)) /
              1000.0);
  }
  return oldest;
}

void GraphService::invalidate_cache() {
  bool wiped = false;
  {
    MutexLock lk(cache_mutex_);
    wiped = cache_.size() != 0;
    // Leave cache_version_ behind the store version; the next miss
    // brings the generation forward.
    if (wiped) cache_.clear();
    // This path records no permutation for the generation it opened.
    cache_perm_known_ = false;
  }
  if (wiped) {
    MutexLock slk(stats_mutex_);
    ++stats_.invalidations;
  }
}

void GraphService::refresh_cache(
    std::uint64_t prev_version, std::uint64_t new_version,
    const algo::EdgeDelta& delta,
    const std::shared_ptr<const Permutation>& perm) {
  // Phase A (cache lock): drain the live generation and open the new
  // one. The generation advances EAGERLY — a concurrent miss computed
  // against the new epoch must land in the new generation, and the
  // reinserts below must find it current.
  std::vector<std::pair<CacheKey, ResultCache::Value>> entries;
  std::size_t live_before = 0;
  bool perm_stable = false;
  {
    MutexLock lk(cache_mutex_);
    live_before = cache_.size();
    // A lagging or bypassed generation (version mismatch) holds entries
    // for some OTHER epoch than the one this delta steps from — they
    // can only be dropped.
    if (cache_version_ == prev_version && live_before != 0)
      entries = cache_.entries();
    perm_stable = cache_perm_known_ &&
                  ((cache_perm_ == nullptr && perm == nullptr) ||
                   (cache_perm_ != nullptr && perm != nullptr &&
                    *cache_perm_ == *perm));
    cache_.clear();
    if (new_version > cache_version_) cache_version_ = new_version;
    cache_perm_ = perm;
    cache_perm_known_ = true;
  }

  // Phase B (no cache lock): recompute every refreshable entry against
  // the new epoch. Query traffic proceeds concurrently — misses for the
  // new epoch just compute-and-insert as usual.
  std::vector<std::pair<CacheKey, ResultCache::Value>> fresh;
  std::vector<std::pair<std::string, double>> hook_ms;
  if (!entries.empty()) {
    const SnapshotRef snap = store_.acquire();
    bool usable = snap && snap.version() == new_version;
    // Publish-level fallback threshold: a bulk rewrite refreshes
    // nothing (every hook would fall back to a full run anyway — better
    // to let queries recompute on demand than serialize N full runs on
    // the writer thread).
    if (usable) {
      const auto m = static_cast<double>(
          std::max<EdgeId>(snap.graph().num_edges(), 1));
      if (static_cast<double>(delta.size()) >
          opts_.refresh_max_delta_fraction * m)
        usable = false;
    }
    // The delta arrives in original ids; the hooks work in snapshot
    // ids. An endpoint outside the permutation means the delta does not
    // match this perm — drop everything rather than refresh wrongly.
    algo::EdgeDelta snap_delta;
    if (usable && perm != nullptr) {
      const auto translate = [&](const std::vector<Edge>& in,
                                 std::vector<Edge>& out) {
        out.reserve(in.size());
        for (const Edge& e : in) {
          if (e.src >= perm->size() || e.dst >= perm->size()) return false;
          out.push_back({(*perm)[e.src], (*perm)[e.dst]});
        }
        return true;
      };
      usable = translate(delta.inserted, snap_delta.inserted) &&
               translate(delta.removed, snap_delta.removed);
    }
    if (usable) {
      const algo::EdgeDelta& eng_delta =
          perm != nullptr ? snap_delta : delta;
      EnginePool::Lease lease = pool_.lease(snap);
      const VertexId n = snap.graph().num_vertices();
      for (auto& [key, val] : entries) {
        const algo::AlgorithmSpec* spec = algo::find_spec(val.code);
        if (spec == nullptr || !spec->refresh || val.payload == nullptr)
          continue;
        if (spec->refresh_needs_stable_perm && !perm_stable) continue;
        try {
          Timer hook;
          algo::QueryParams exec = val.params;
          if (spec->params.find("source") != nullptr) {
            VertexId src = exec.get_vertex("source");
            if (perm != nullptr) {
              if (src >= static_cast<VertexId>(perm->size())) continue;
              src = (*perm)[src];
            }
            if (src >= n) continue;
            exec.set("source", src);
          }
          // The cached payload is in original ids; hand the hook a view
          // in THIS snapshot's id space. Throws (and drops the entry)
          // when sizes no longer line up — e.g. vertex growth.
          const algo::QueryPayload prev_snap =
              perm != nullptr
                  ? algo::translate_from_original_ids(*val.payload, *perm)
                  : *val.payload;
          const QueryContext& ctx = QueryContext::none();
          algo::QueryPayload out;
          {
            obs::StageScope span(obs::SpanKind::Refresh);
            if (span.live()) span.span().a = new_version;
            Engine::ContextBinding bind(lease.engine(), ctx);
            out = spec->refresh(lease.engine(), exec, prev_snap, eng_delta,
                                ctx);
          }
          ResultCache::Value nv;
          // Checksum in snapshot order, translate after — the exact
          // sequence process() runs, so a refreshed entry is
          // indistinguishable from a recomputed one.
          nv.checksum = spec->checksum(out);
          nv.payload = std::make_shared<const algo::QueryPayload>(
              perm != nullptr ? algo::translate_to_original_ids(out, *perm)
                              : std::move(out));
          nv.code = val.code;
          nv.params = val.params;
          hook_ms.emplace_back(val.code, hook.elapsed_ms());
          fresh.emplace_back(key, std::move(nv));
        } catch (...) {
          // Refresh is best-effort: a throwing hook degrades to the
          // plain invalidation this entry would have gotten anyway.
        }
      }
    }
  }

  // Phase C (cache lock): reinsert, unless yet another publish already
  // superseded the generation we refreshed for.
  std::size_t reinserted = 0;
  {
    MutexLock lk(cache_mutex_);
    if (cache_version_ == new_version) {
      for (auto& [key, val] : fresh) cache_.insert(key, std::move(val));
      reinserted = fresh.size();
    }
  }
  const std::size_t dropped = live_before - reinserted;
  {
    MutexLock slk(stats_mutex_);
    stats_.refreshes += reinserted;
    // One invalidation per publish that dropped anything — mirrors
    // invalidate_cache's per-wipe (not per-entry) accounting.
    if (dropped > 0) ++stats_.invalidations;
    for (const auto& [code, ms] : hook_ms) {
      auto& slot = refresh_lat_[code];
      ++slot.first;
      slot.second += ms;
    }
  }
}

std::vector<GraphService::RefreshLatency> GraphService::refresh_latency()
    const {
  MutexLock lk(stats_mutex_);
  std::vector<RefreshLatency> out;
  out.reserve(refresh_lat_.size());
  for (const auto& [algo, slot] : refresh_lat_)
    out.push_back({algo, slot.first, slot.second});
  return out;  // std::map iteration order == sorted by algo code
}

ServiceHealth GraphService::health() const {
  ServiceHealth h;
  {
    MutexLock lk(queue_mutex_);
    h.accepting = !stopping_;
    h.queue_depth = queue_.size();
  }
  const std::int64_t now_us = steady_now_us();
  h.workers.reserve(worker_state_.size());
  for (const auto& ws : worker_state_) {
    WorkerHealth w;
    w.processed = ws->processed.load(std::memory_order_relaxed);
    const std::int64_t since = ws->busy_since_us.load(std::memory_order_acquire);
    if (since >= 0) {
      w.busy = true;
      // Clamp: the worker may have stamped after our now_us read.
      w.busy_ms = static_cast<double>(std::max<std::int64_t>(
                      0, now_us - since)) /
                  1000.0;
      ++h.in_flight;
      h.oldest_running_ms = std::max(h.oldest_running_ms, w.busy_ms);
    }
    h.workers.push_back(w);
  }
  if (window_ != nullptr) {
    const obs::WindowSnapshot w = window_->snapshot(obs::Tracer::now_ns());
    h.window_samples = w.total;
    h.window_qps = w.qps;
    h.window_error_rate = w.error_rate;
    h.window_p50_ms = w.p50_ms;
    h.window_p95_ms = w.p95_ms;
    h.window_p99_ms = w.p99_ms;
    const obs::SloStatus s = slo_.evaluate(w);
    h.availability = s.availability;
    h.burn_rate = s.burn_rate;
    h.latency_burn_rate = s.latency_burn_rate;
    h.slo_healthy = s.healthy;
  }
  h.traces_captured = trace_store_.captured();
  const std::uint64_t thr = keep_threshold_us_.load(std::memory_order_relaxed);
  h.slow_keep_threshold_ms =
      thr == kNoThreshold ? 0 : static_cast<double>(thr) / 1000.0;
  return h;
}

void GraphService::record(double latency_ms, WorkerState& ws) {
  // Log-bucketed microseconds (~6% resolution, bounded bin count — a
  // one-off multi-second outlier must not balloon the histogram). 0
  // rounds up to 1us so the p50 of all-cache-hit workloads is not
  // reported as exactly zero.
  const auto us = static_cast<std::uint64_t>(
      std::max(1.0, latency_ms * 1000.0));
  // The worker's own histogram: uncontended in steady state (latency()
  // is the only other reader).
  MutexLock lk(ws.lat_mutex);
  ws.lat_buckets.add(log_bucket(us));
  ws.lat_sum_ms += latency_ms;
}

GraphServiceStats GraphService::stats() const {
  MutexLock lk(stats_mutex_);
  return stats_;
}

LatencySummary GraphService::latency() const {
  // Merge the per-worker histograms; locks are taken one at a time (no
  // nesting), so workers keep recording.
  Histogram merged;
  double sum_ms = 0;
  for (const auto& ws : worker_state_) {
    MutexLock lk(ws->lat_mutex);
    merged.merge(ws->lat_buckets);
    sum_ms += ws->lat_sum_ms;
  }
  LatencySummary s;
  s.samples = merged.total();
  if (s.samples == 0) return s;
  s.p50_ms =
      static_cast<double>(log_bucket_floor(merged.value_at_quantile(0.50))) /
      1e3;
  s.p95_ms =
      static_cast<double>(log_bucket_floor(merged.value_at_quantile(0.95))) /
      1e3;
  s.p99_ms =
      static_cast<double>(log_bucket_floor(merged.value_at_quantile(0.99))) /
      1e3;
  s.mean_ms = sum_ms / static_cast<double>(s.samples);
  return s;
}

void GraphService::collect_metrics(std::vector<obs::MetricSample>& out) const {
  using obs::MetricSample;
  using obs::MetricType;
  auto emit = [&out](MetricType type, const char* name, const char* help,
                     double value,
                     std::vector<std::pair<std::string, std::string>> labels =
                         {}) {
    MetricSample s;
    s.name = name;
    s.help = help;
    s.type = type;
    s.labels = std::move(labels);
    s.value = value;
    out.push_back(std::move(s));
  };

  const GraphServiceStats st = stats();
  emit(MetricType::Counter, "vebo_service_submitted_total",
       "queries ever submitted (accepted or rejected)",
       static_cast<double>(st.submitted));
  emit(MetricType::Counter, "vebo_service_rejected_total",
       "submits rejected by backpressure", static_cast<double>(st.rejected));
  emit(MetricType::Counter, "vebo_service_completed_total",
       "queries answered successfully", static_cast<double>(st.completed));
  emit(MetricType::Counter, "vebo_service_failed_total",
       "queries completed exceptionally", static_cast<double>(st.failed));
  emit(MetricType::Gauge, "vebo_service_in_flight",
       "accepted queries not yet settled",
       static_cast<double>(st.in_flight));
  emit(MetricType::Counter, "vebo_service_shed_total",
       "accepted queries shed before execution",
       static_cast<double>(st.shed_deadline), {{"reason", "deadline"}});
  emit(MetricType::Counter, "vebo_service_shed_total",
       "accepted queries shed before execution",
       static_cast<double>(st.shed_cancelled), {{"reason", "cancelled"}});
  for (std::size_t i = 0; i < kNumErrorCodes; ++i)
    emit(MetricType::Counter, "vebo_service_errors_total",
         "failures by ServiceError code",
         static_cast<double>(st.errors_by_code[i]),
         {{"code", to_string(static_cast<ErrorCode>(i))}});

  // Result cache: hits/invalidations come from the service ledger,
  // occupancy and evictions from the cache itself.
  emit(MetricType::Counter, "vebo_cache_hits_total",
       "queries answered from the live cache generation",
       static_cast<double>(st.cache_hits));
  emit(MetricType::Counter, "vebo_cache_invalidations_total",
       "cache generations wiped by publish",
       static_cast<double>(st.invalidations));
  emit(MetricType::Counter, "vebo_cache_refreshes_total",
       "entries refreshed in place across a publish (refresh_on_publish)",
       static_cast<double>(st.refreshes));
  for (const RefreshLatency& rl : refresh_latency()) {
    emit(MetricType::Gauge, "vebo_cache_refresh_latency_ms_sum",
         "total wall time spent in refresh hooks", rl.total_ms,
         {{"algo", rl.algo}});
    emit(MetricType::Gauge, "vebo_cache_refresh_latency_ms_count",
         "refresh-hook invocations", static_cast<double>(rl.count),
         {{"algo", rl.algo}});
  }
  {
    MutexLock lk(cache_mutex_);
    emit(MetricType::Counter, "vebo_cache_evictions_total",
         "entries LRU-evicted from a full cache",
         static_cast<double>(cache_.evictions()));
    emit(MetricType::Gauge, "vebo_cache_entries",
         "live-generation entries resident",
         static_cast<double>(cache_.size()));
  }

  const EnginePoolStats ps = pool_.stats();
  emit(MetricType::Counter, "vebo_pool_engines_created_total",
       "engine contexts ever constructed", static_cast<double>(ps.created));
  emit(MetricType::Counter, "vebo_pool_leases_total",
       "engine leases handed out", static_cast<double>(ps.leases));
  emit(MetricType::Counter, "vebo_pool_rebinds_total",
       "leases that crossed a snapshot version",
       static_cast<double>(ps.rebinds));
  emit(MetricType::Counter, "vebo_pool_waits_total",
       "leases that blocked on a full pool", static_cast<double>(ps.waits));

  const SnapshotStoreStats ss = store_.stats();
  emit(MetricType::Counter, "vebo_snapshots_published_total",
       "epochs ever published", static_cast<double>(ss.published));
  emit(MetricType::Counter, "vebo_snapshots_reclaimed_total",
       "epochs whose last reference dropped",
       static_cast<double>(ss.reclaimed));
  emit(MetricType::Gauge, "vebo_snapshots_live", "published - reclaimed",
       static_cast<double>(ss.live));

  const LatencySummary ls = latency();
  const char* lat_help = "submit-to-completion latency quantiles";
  emit(MetricType::Summary, "vebo_service_latency_ms", lat_help, ls.p50_ms,
       {{"quantile", "0.5"}});
  emit(MetricType::Summary, "vebo_service_latency_ms", lat_help, ls.p95_ms,
       {{"quantile", "0.95"}});
  emit(MetricType::Summary, "vebo_service_latency_ms", lat_help, ls.p99_ms,
       {{"quantile", "0.99"}});
  emit(MetricType::Gauge, "vebo_service_latency_ms_sum",
       "total latency over all samples",
       ls.mean_ms * static_cast<double>(ls.samples));
  emit(MetricType::Gauge, "vebo_service_latency_ms_count",
       "latency samples recorded", static_cast<double>(ls.samples));

  // The always-on window (PR 8): what is happening RIGHT NOW, next to
  // the cumulative trajectory above. Names end in _window so dashboards
  // can't confuse a 10-second rate with a since-boot counter.
  if (window_ != nullptr) {
    const obs::WindowSnapshot w = window_->snapshot(obs::Tracer::now_ns());
    const obs::SloStatus slo = slo_.evaluate(w);
    emit(MetricType::Gauge, "vebo_service_qps_window",
         "settled queries per second over the sliding window", w.qps);
    emit(MetricType::Gauge, "vebo_service_error_rate_window",
         "windowed error fraction of settled queries", w.error_rate);
    emit(MetricType::Gauge, "vebo_service_window_samples",
         "settled queries inside the sliding window",
         static_cast<double>(w.total));
    for (std::size_t i = 0; i < kNumErrorCodes && i < w.errors_by_code.size();
         ++i)
      emit(MetricType::Gauge, "vebo_service_errors_window",
           "windowed failures by ServiceError code",
           static_cast<double>(w.errors_by_code[i]),
           {{"code", to_string(static_cast<ErrorCode>(i))}});
    const char* wlat_help = "windowed latency quantiles";
    emit(MetricType::Summary, "vebo_service_latency_ms_window", wlat_help,
         w.p50_ms, {{"quantile", "0.5"}});
    emit(MetricType::Summary, "vebo_service_latency_ms_window", wlat_help,
         w.p95_ms, {{"quantile", "0.95"}});
    emit(MetricType::Summary, "vebo_service_latency_ms_window", wlat_help,
         w.p99_ms, {{"quantile", "0.99"}});
    for (const obs::AlgoWindowStats& a : w.per_algo) {
      const char* alat_help = "windowed latency quantiles per algorithm";
      emit(MetricType::Summary, "vebo_algo_latency_ms_window", alat_help,
           a.p50_ms, {{"algo", a.algo}, {"quantile", "0.5"}});
      emit(MetricType::Summary, "vebo_algo_latency_ms_window", alat_help,
           a.p99_ms, {{"algo", a.algo}, {"quantile", "0.99"}});
    }
    emit(MetricType::Gauge, "vebo_slo_availability_window",
         "1 - windowed error rate", slo.availability);
    emit(MetricType::Gauge, "vebo_slo_burn_rate",
         "windowed error rate / error budget (1.0 = sustainable pace)",
         slo.burn_rate);
    emit(MetricType::Gauge, "vebo_slo_latency_burn_rate",
         "over-target latency fraction / allowed fraction",
         slo.latency_burn_rate);
  }

  // Tail sampling + flight recorder activity.
  emit(MetricType::Counter, "vebo_traces_captured_total",
       "tail-sampled traces kept (slow / deadline / failed)",
       static_cast<double>(trace_store_.captured()));
  emit(MetricType::Gauge, "vebo_traces_stored",
       "keeper traces resident in the trace store",
       static_cast<double>(trace_store_.size()));
  emit(MetricType::Counter, "vebo_recorder_dumps_total",
       "flight-recorder dumps taken (process-wide)",
       static_cast<double>(obs::FlightRecorder::instance().dumps()));
}

}  // namespace vebo::serve
