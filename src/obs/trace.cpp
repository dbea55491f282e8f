#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "support/error.hpp"

namespace vebo::obs {

namespace {

/// The calling thread's trace state. Single writer, single reader (the
/// same thread), so no synchronization is needed on the record path.
struct ThreadRing {
  std::uint64_t id = 0;  ///< 0 = not tracing
  std::uint64_t begin_ns = 0;
  /// Sticky begin_reusing() registration: once a thread tail-samples it
  /// holds ONE unit in the packed armed word until it exits, instead of
  /// a fetch_add/fetch_sub pair per query — at serving rates those two
  /// RMWs ping-pong the global cache line across every worker and are
  /// the single largest telemetry cost. tracing_enabled() therefore
  /// means "a trace may be active"; the per-thread id check stays the
  /// source of truth (id == 0 between queries).
  bool counted = false;
  /// Trace ids come from g_next_trace_id in blocks so the hot path
  /// never touches that shared line either.
  std::uint64_t next_id = 0;
  std::uint64_t ids_left = 0;
  SpanRing spans;

  ~ThreadRing() {
    if (counted)
      detail::g_active_traces.fetch_sub(1, std::memory_order_relaxed);
  }
};

thread_local ThreadRing t_ring;

std::atomic<std::uint64_t> g_next_trace_id{1};
constexpr std::uint64_t kIdBlock = 1024;

/// Hands out a process-unique trace id (never 0) from the thread's
/// block, refilling from the shared counter once per kIdBlock traces.
std::uint64_t next_trace_id(ThreadRing& r) {
  if (r.ids_left == 0) {
    r.next_id = g_next_trace_id.fetch_add(kIdBlock, std::memory_order_relaxed);
    r.ids_left = kIdBlock;
  }
  --r.ids_left;
  return r.next_id++;
}

/// Ring -> Trace span collection shared by end() and end_reusing():
/// ring order is completion order; sort by start so nested steps read
/// naturally in the export.
void collect_spans(const SpanRing& ring, Trace& t) {
  t.dropped = ring.dropped();
  t.spans.reserve(ring.recorded() - ring.dropped());
  ring.for_each([&t](const Span& s) { t.spans.push_back(s); });
  std::stable_sort(t.spans.begin(), t.spans.end(),
                   [](const Span& x, const Span& y) {
                     return x.start_ns < y.start_ns;
                   });
}

}  // namespace

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::EdgeMap: return "edge_map";
    case SpanKind::EdgeFold: return "edge_fold";
    case SpanKind::Iteration: return "iteration";
    case SpanKind::QueueWait: return "queue_wait";
    case SpanKind::EngineLease: return "engine_lease";
    case SpanKind::CacheProbe: return "cache_probe";
    case SpanKind::Execute: return "execute";
    case SpanKind::Translate: return "translate";
    case SpanKind::ApplyBatch: return "apply_batch";
    case SpanKind::Snapshot: return "snapshot";
    case SpanKind::Compact: return "compact";
    // vebo-lint: disable=metric-names -- span stage label, not a metric
    case SpanKind::VeboRefine: return "vebo_refine";
    case SpanKind::Publish: return "publish";
    case SpanKind::Refresh: return "refresh";
  }
  return "?";
}

const char* to_string(KernelVariant v) {
  switch (v) {
    case KernelVariant::None: return "none";
    case KernelVariant::Probe: return "probe";
    case KernelVariant::Complete: return "complete";
    case KernelVariant::Fold: return "fold";
  }
  return "?";
}

namespace detail {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool thread_tracing_slow() { return t_ring.id != 0; }

void record(const Span& s) {
  ThreadRing& r = t_ring;
  if (r.id != 0) r.spans.push(s);
}

}  // namespace detail

void SpanRing::reset(std::size_t capacity) {
  VEBO_CHECK(capacity >= 1, "SpanRing: capacity must be >= 1");
  if (capacity != capacity_) {
    release();
    capacity_ = capacity;
  }
  spans_.clear();
  next_ = 0;
  recorded_ = 0;
}

std::uint64_t Tracer::begin(std::size_t capacity) {
  ThreadRing& r = t_ring;
  VEBO_CHECK(r.id == 0, "Tracer::begin: this thread is already tracing");
  r.spans.reset(capacity);
  r.id = next_trace_id(r);
  r.begin_ns = detail::now_ns();
  detail::g_active_traces.fetch_add(1, std::memory_order_relaxed);
  return r.id;
}

Trace Tracer::end() {
  ThreadRing& r = t_ring;
  VEBO_CHECK(r.id != 0, "Tracer::end: this thread is not tracing");
  // Disarm first so the collection below records nothing into itself.
  detail::g_active_traces.fetch_sub(1, std::memory_order_relaxed);
  Trace t;
  t.id = r.id;
  t.begin_ns = r.begin_ns;
  t.end_ns = detail::now_ns();
  t.recorded = r.spans.recorded();
  collect_spans(r.spans, t);
  r.id = 0;
  r.spans.release();
  return t;
}

std::uint64_t Tracer::begin_reusing(std::size_t capacity,
                                    std::uint64_t begin_ns) {
  ThreadRing& r = t_ring;
  VEBO_CHECK(r.id == 0,
             "Tracer::begin_reusing: this thread is already tracing");
  // Keeps the previous round's storage: no per-query allocation.
  r.spans.reset(capacity);
  r.id = next_trace_id(r);
  r.begin_ns = begin_ns != 0 ? begin_ns : detail::now_ns();
  // Sticky registration (see ThreadRing): pay the shared-word RMW once
  // per thread, not once per query. The TLS destructor releases it.
  if (!r.counted) {
    detail::g_active_traces.fetch_add(1, std::memory_order_relaxed);
    r.counted = true;
  }
  return r.id;
}

Trace Tracer::end_reusing(bool keep) {
  ThreadRing& r = t_ring;
  VEBO_CHECK(r.id != 0, "Tracer::end_reusing: this thread is not tracing");
  Trace t;
  t.id = r.id;
  t.begin_ns = r.begin_ns;
  t.recorded = r.spans.recorded();
  if (keep) {
    // Only the kept minority pays the end stamp and the copy-out; the
    // dropped trace carries id/begin/census only.
    t.end_ns = detail::now_ns();
    collect_spans(r.spans, t);
  } else {
    t.end_ns = r.begin_ns;
  }
  r.id = 0;  // ring storage retained for the next begin_reusing
  return t;
}

void SpanScope::init(SpanKind kind) {
  if (!detail::thread_tracing_slow()) return;
  live_ = true;
  span_.kind = kind;
  span_.start_ns = detail::now_ns();
}

void SpanScope::finish() {
  span_.dur_ns = detail::now_ns() - span_.start_ns;
  detail::record(span_);
}

// ------------------------------------------------ Chrome trace export

namespace {

const char* category(SpanKind k) {
  switch (k) {
    case SpanKind::EdgeMap:
    case SpanKind::EdgeFold:
    case SpanKind::Iteration: return "framework";
    case SpanKind::QueueWait:
    case SpanKind::EngineLease:
    case SpanKind::CacheProbe:
    case SpanKind::Execute:
    case SpanKind::Translate:
    case SpanKind::Refresh: return "serve";
    default: return "stream";
  }
}

void json_kv(std::ostringstream& os, bool& first, const char* key) {
  if (!first) os << ",";
  first = false;
  os << "\"" << key << "\":";
}

void arg_u64(std::ostringstream& os, bool& first, const char* key,
             std::uint64_t v) {
  json_kv(os, first, key);
  os << v;
}

void arg_str(std::ostringstream& os, bool& first, const char* key,
             const char* v) {
  json_kv(os, first, key);
  os << "\"" << v << "\"";
}

}  // namespace

namespace detail {

void append_chrome_event(std::ostringstream& os, const Span& s,
                         std::uint32_t tid, std::uint64_t base_ns) {
  // Queue-wait spans can start before the base stamp (the wait began at
  // submit); clamp so timestamps stay non-negative.
  const std::uint64_t start = s.start_ns >= base_ns ? s.start_ns - base_ns : 0;
  os << ",{\"name\":\"" << to_string(s.kind) << "\",\"cat\":\""
     << category(s.kind) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
     << ",\"ts\":" << static_cast<double>(start) / 1e3
     << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3 << ",\"args\":{";
  bool first = true;
  switch (s.kind) {
    case SpanKind::EdgeMap:
    case SpanKind::EdgeFold:
      arg_str(os, first, "direction",
              s.direction == 2 ? "pull" : (s.direction == 1 ? "push" : "?"));
      arg_str(os, first, "kernel", to_string(s.variant));
      arg_str(os, first, "frontier_rep",
              s.rep == 3 ? "complete"
                         : (s.rep == 2 ? "dense"
                                       : (s.rep == 1 ? "sparse" : "n/a")));
      arg_u64(os, first, "frontier", s.a);
      if (s.b != kUnknownArg) arg_u64(os, first, "out_edges", s.b);
      arg_u64(os, first, "dense_threshold", s.c);
      arg_u64(os, first, "chunks", s.d);
      if (s.flags & 1) arg_u64(os, first, "early_exit", 1);
      if (s.flags & 4) arg_u64(os, first, "forced", 1);
      break;
    case SpanKind::Iteration:
      arg_u64(os, first, "iteration", s.a);
      arg_u64(os, first, "frontier", s.b);
      break;
    case SpanKind::QueueWait: break;
    case SpanKind::EngineLease:
    case SpanKind::Execute:
    case SpanKind::Refresh:
      arg_u64(os, first, "version", s.a);
      break;
    case SpanKind::Publish:
      arg_u64(os, first, "version", s.a);
      arg_u64(os, first, "refreshed", s.b);
      arg_u64(os, first, "dropped", s.c);
      break;
    case SpanKind::Snapshot:
      arg_u64(os, first, "version", s.a);
      arg_u64(os, first, "patched", s.b);
      arg_u64(os, first, "flips", s.c);
      break;
    case SpanKind::CacheProbe:
      arg_str(os, first, "result", s.a != 0 ? "hit" : "miss");
      break;
    case SpanKind::Translate:
      arg_u64(os, first, "payload_vertices", s.a);
      break;
    case SpanKind::ApplyBatch:
      arg_u64(os, first, "inserted", s.a);
      arg_u64(os, first, "removed", s.b);
      arg_u64(os, first, "grew_vertices", s.c);
      break;
    case SpanKind::Compact: break;
    case SpanKind::VeboRefine:
      arg_str(os, first, "action",
              s.a == 2 ? "full" : (s.a == 1 ? "incremental" : "none"));
      arg_u64(os, first, "dirty", s.b);
      break;
  }
  os << "}}";
}

}  // namespace detail

std::string to_chrome_trace_json(const Trace& t) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
     << "\"args\":{\"name\":\"trace " << t.id << "\"}}";
  for (const Span& s : t.spans)
    detail::append_chrome_event(os, s, /*tid=*/1, t.begin_ns);
  os << "],\"otherData\":{\"trace_id\":\"" << t.id << "\",\"recorded\":\""
     << t.recorded << "\",\"dropped\":\"" << t.dropped << "\"}}";
  return os.str();
}

// -------------------------------------------------------- TraceStore

TraceStore::TraceStore(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

void TraceStore::push(CapturedTrace t) {
  MutexLock lk(mutex_);
  t.seq = ++captured_;
  ring_.push_back(std::move(t));
  if (ring_.size() > capacity_) {
    ring_.pop_front();
    ++evicted_;
  }
}

std::vector<CapturedTrace> TraceStore::recent() const {
  MutexLock lk(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::size_t TraceStore::size() const {
  MutexLock lk(mutex_);
  return ring_.size();
}

std::uint64_t TraceStore::captured() const {
  MutexLock lk(mutex_);
  return captured_;
}

std::uint64_t TraceStore::evicted() const {
  MutexLock lk(mutex_);
  return evicted_;
}

void TraceStore::clear() {
  MutexLock lk(mutex_);
  ring_.clear();
}

}  // namespace vebo::obs
