// Per-query execution tracing: where did this query's time go?
//
// The paper's whole argument is about *where time goes* — direction
// choice, per-partition balance, frontier shape — yet a served query
// used to report only its end-to-end latency. The tracer records one
// Span per interesting step:
//  * framework steps — each edge_map / edge_fold call, with the direction
//    chosen, the heuristic's inputs (frontier size, out-edge sum, dense
//    threshold), the frontier representation, the kernel variant
//    instantiated (probing / complete / fold), and the dense
//    chunk count;
//  * algorithm iteration tops (one Span per hand-rolled superstep);
//  * serve-path stages (queue wait, engine lease, cache probe, execute,
//    payload translation) and stream-path stages (apply_batch,
//    snapshot, compact, vebo_refine, publish).
// Each Span carries its measured duration; a framework span's args say
// why the engine chose what it ran.
//
// Design (the support/fault.hpp arming pattern):
//  * Disarmed cost ~ nothing: every instrumentation site starts with one
//    RELAXED ATOMIC LOAD of a global active-trace counter and branches
//    away. No TLS access, no clock read, no allocation. The poll sites
//    sit at step granularity (an edge_map call, an iteration top), never
//    inside the dense kernels.
//  * Arming is per thread: Tracer::begin() starts a trace on the calling
//    thread; only spans recorded BY THAT THREAD land in it. Framework
//    and serve-path spans are recorded on the thread driving the query
//    (parallel regions fan out below span granularity), so a traced
//    query's spans are complete even while other threads run untraced —
//    and concurrent traced queries on different workers never mix.
//  * Recording is lock-free: each thread appends to its own SpanRing
//    (single writer, no atomics, no locks; the flight recorder's rings
//    are the same type). When the ring wraps, the oldest spans are
//    overwritten and counted as dropped.
//  * Collection (Tracer::end()) runs on the recording thread, so no
//    tracer ring is ever read from another thread.
//
// Export: to_chrome_trace_json() renders a Trace in the Chrome
// trace-event format ("traceEvents" of "ph":"X" slices) — load the file
// in Perfetto or chrome://tracing.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/annotated_mutex.hpp"

namespace vebo::obs {

enum class SpanKind : std::uint8_t {
  // framework
  EdgeMap = 0,
  EdgeFold,
  Iteration,
  // serve path
  QueueWait,
  EngineLease,
  CacheProbe,
  Execute,
  Translate,
  // stream path
  ApplyBatch,
  Snapshot,
  Compact,
  VeboRefine,
  Publish,
  Refresh,  ///< serve path: one cache entry recomputed across a publish
};
const char* to_string(SpanKind k);

/// Sentinel for a kind-specific arg the instrumentation site did not
/// have (e.g. the out-edge sum when the heuristic never computed it —
/// tracing must not force the degree walk). Omitted from the export.
inline constexpr std::uint64_t kUnknownArg = ~std::uint64_t{0};

/// Which dense kernel instantiation a framework step ran.
enum class KernelVariant : std::uint8_t {
  None = 0,   ///< not a dense kernel (sparse push)
  Probe,      ///< BitsetProbe pull
  Complete,   ///< CompleteProbe pull (complete-frontier specialization)
  Fold,       ///< edge_fold register-accumulating gather
};
const char* to_string(KernelVariant v);

/// One traced step. `a`/`b`/`c`/`d` are kind-specific (the exporter
/// names them):
///  * EdgeMap/EdgeFold: a = frontier size, b = frontier out-edge sum
///    (~0 = not computed by the heuristic), c = dense threshold, d =
///    dense chunk/partition count (0 = sparse path).
///  * Iteration: a = iteration index, b = frontier size (when the
///    algorithm tracks one). BF's one-thread bucket pass records one
///    Iteration for the whole pass instead, with a = distance buckets
///    settled, b = vertices settled, and no EdgeMap step under it.
///  * QueueWait: (none). EngineLease/Execute: a = snapshot version.
///  * CacheProbe: a = 1 on hit. Translate: a = payload vertex count.
///  * ApplyBatch: a = inserted, b = removed, c = vertices grown.
///  * VeboRefine: a = RebalanceAction, b = dirty vertex count.
///  * Publish: a = version (0 when unversioned), b = cache entries
///    refreshed into the new epoch, c = cache entries dropped.
///  * Snapshot: a = version (0 when unversioned), b = 1 when patched
///    from the previous snapshot (0 = full relabel), c = net arc flips
///    the patch applied.
///  * Refresh: a = the version the entry was refreshed to.
struct Span {
  std::uint64_t start_ns = 0;  ///< steady-clock stamp
  std::uint64_t dur_ns = 0;
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
  SpanKind kind = SpanKind::EdgeMap;
  KernelVariant variant = KernelVariant::None;
  std::uint8_t direction = 0;  ///< 0 n/a, 1 push, 2 pull
  std::uint8_t rep = 0;        ///< frontier rep: 0 n/a, 1 sparse, 2 dense, 3 complete
  /// EdgeMap only: bit0 = early-exit, bit2 = forced (the caller chose
  /// the direction, so the heuristic's inputs were not consulted)
  std::uint8_t flags = 0;
};

/// A finished trace: spans in start order, plus ring accounting.
struct Trace {
  std::uint64_t id = 0;
  std::uint64_t begin_ns = 0;  ///< Tracer::begin() stamp
  std::uint64_t end_ns = 0;    ///< Tracer::end() stamp
  std::vector<Span> spans;
  std::uint64_t recorded = 0;  ///< spans ever recorded (>= spans.size())
  std::uint64_t dropped = 0;   ///< overwritten by ring wrap
};

/// A bounded span ring, the one ring type behind both the per-thread
/// tracer and the flight recorder: appends until `capacity` spans, then
/// overwrites the oldest (counted by dropped()). Storage grows as spans
/// arrive instead of being filled up front, so arming a large ring costs
/// nothing until spans land in it. Single writer; the owner synchronizes
/// any other reader.
class SpanRing {
 public:
  /// Empties the ring and sets its capacity (>= 1). The storage is kept
  /// for reuse when the capacity is unchanged, released otherwise.
  void reset(std::size_t capacity);
  /// Empties the ring and frees its storage.
  void release() { *this = SpanRing(); }

  /// Requires a capacity: call reset() first.
  void push(const Span& s) {
    ++recorded_;
    if (spans_.size() < capacity_) {
      spans_.push_back(s);
      return;
    }
    // Indexed wrap, not modulo: the capacity is runtime-chosen, so %
    // would be an integer divide on every span.
    spans_[next_] = s;
    if (++next_ == capacity_) next_ = 0;
  }

  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - spans_.size(); }

  /// Visits the surviving spans oldest first (completion order).
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = next_; i < spans_.size(); ++i) f(spans_[i]);
    for (std::size_t i = 0; i < next_; ++i) f(spans_[i]);
  }

 private:
  std::vector<Span> spans_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;  ///< once full: the oldest span, overwritten next
  std::uint64_t recorded_ = 0;
};

namespace detail {

/// The packed armed word — still the ONE relaxed load every disarmed
/// instrumentation site pays. Low bits count threads with an active
/// begin() trace plus threads sticky-registered for tail sampling
/// (begin_reusing); kRecorderArmedBit is set
/// while the process-wide flight recorder is armed. Packing both sinks
/// into one atomic keeps the PR 7 contract ("disarmed means one relaxed
/// load") intact with the recorder in the picture: a site checks one
/// word, then routes to whichever sink is live.
inline constexpr std::uint32_t kRecorderArmedBit = 1u << 24;
inline std::atomic<std::uint32_t> g_active_traces{0};

void record(const Span& s);  // appends to the calling thread's ring
bool thread_tracing_slow();  // TLS check (only called when armed)
std::uint64_t now_ns();

/// One Chrome trace-event "ph":"X" slice for `s` appended to `os`
/// (timestamps relative to base_ns, clamped non-negative). Shared by
/// the per-query export and the flight-recorder export so span args are
/// named identically in both.
void append_chrome_event(std::ostringstream& os, const Span& s,
                         std::uint32_t tid, std::uint64_t base_ns);

}  // namespace detail

/// True iff ANY thread MAY have an active trace — the armed check: a
/// thread with an open begin() trace, or one registered for tail
/// sampling via begin_reusing() (sticky until thread exit; see
/// begin_reusing). One relaxed atomic load; the per-thread id check
/// happens only when armed and stays the source of truth.
inline bool tracing_enabled() {
  return (detail::g_active_traces.load(std::memory_order_relaxed) &
          (detail::kRecorderArmedBit - 1)) != 0;
}

/// The process tracer. All state is per-thread (see file comment); the
/// static API manipulates the calling thread's trace.
class Tracer {
 public:
  /// Default ring capacity (spans) for begin().
  static constexpr std::size_t kDefaultCapacity = 1 << 15;

  /// Starts a trace on the calling thread and returns its id (unique
  /// process-wide, never 0). Throws if this thread is already tracing.
  static std::uint64_t begin(std::size_t capacity = kDefaultCapacity);

  /// Ends the calling thread's trace and returns it (spans in start
  /// order). Throws if the thread is not tracing.
  static Trace end();

  /// Tail-sampling variant of begin(): starts a trace but KEEPS the
  /// thread's ring storage from the previous begin_reusing() round —
  /// no per-query allocation, and (unlike begin()) no per-query RMW on
  /// the shared armed word: the thread registers in the packed word
  /// once, on its first begin_reusing(), and stays registered until it
  /// exits. A registered-but-idle thread keeps tracing_enabled() true
  /// process-wide (sites then fall through on the thread-local id
  /// check), which is the deliberate trade: one extra TLS load at armed
  /// sites instead of two globally contended RMWs on EVERY query.
  /// Pass begin_ns to reuse a stamp the caller already took (e.g. the
  /// enqueue stamp) instead of reading the clock again; 0 reads it.
  static std::uint64_t begin_reusing(std::size_t capacity,
                                     std::uint64_t begin_ns = 0);

  /// Ends a begin_reusing() trace. keep=false is the fast path (the
  /// overwhelmingly common "query was fine, drop it" outcome): clear
  /// the thread-local id and return an empty Trace carrying only
  /// id/begin/ring accounting — no clock read, no RMW, no copy.
  /// keep=true stamps end_ns and collects the spans exactly like
  /// end(). Either way the ring memory (and the thread's registration
  /// in the armed word) is retained for the thread's next round.
  static Trace end_reusing(bool keep);

  /// True iff the CALLING thread has an active trace.
  static bool thread_tracing() {
    return tracing_enabled() && detail::thread_tracing_slow();
  }

  static std::uint64_t now_ns() { return detail::now_ns(); }
};

/// RAII step span: stamps start at construction, records at destruction.
/// Dead (one relaxed load, nothing else) unless the calling thread is
/// tracing; fill args only under live().
class SpanScope {
 public:
  explicit SpanScope(SpanKind kind) {
    if (!tracing_enabled()) return;
    init(kind);
  }
  ~SpanScope() {
    if (live_) finish();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool live() const { return live_; }
  /// The span under construction; meaningful only when live().
  Span& span() { return span_; }

 private:
  void init(SpanKind kind);  // TLS check + start stamp (trace.cpp)
  void finish();             // duration stamp + ring append (trace.cpp)

  Span span_{};
  bool live_ = false;
};

/// RAII thread trace: begin() on construction, end() via finish() — or
/// silently discarded on destruction if finish() was never reached (the
/// exception path must not leave the thread armed).
class ThreadTrace {
 public:
  explicit ThreadTrace(std::size_t capacity = Tracer::kDefaultCapacity) {
    id_ = Tracer::begin(capacity);
  }
  ~ThreadTrace() {
    if (!done_) (void)Tracer::end();
  }
  ThreadTrace(const ThreadTrace&) = delete;
  ThreadTrace& operator=(const ThreadTrace&) = delete;

  std::uint64_t id() const { return id_; }
  Trace finish() {
    done_ = true;
    return Tracer::end();
  }

 private:
  std::uint64_t id_ = 0;
  bool done_ = false;
};

/// Renders a trace in the Chrome trace-event JSON format (an object with
/// a "traceEvents" array of complete-slice "ph":"X" events, timestamps
/// in microseconds relative to the trace begin). Loadable in Perfetto
/// and chrome://tracing.
std::string to_chrome_trace_json(const Trace& t);

/// A tail-sampled trace the service decided to keep, with the context
/// needed to make sense of it without the query object.
struct CapturedTrace {
  Trace trace;
  std::string algo;      ///< registry code of the query
  /// Why it was kept: "slow" (over the rolling threshold), "deadline",
  /// "error:<code>" (ServiceError), or "manual".
  std::string reason;
  double latency_ms = 0;
  std::uint64_t version = 0;  ///< epoch it ran on (0 if it never ran)
  std::uint64_t seq = 0;      ///< capture sequence number (1-based)
};

/// Bounded ring of recent keeper traces — the tail-sampling sink. Push
/// evicts the oldest once full; recent() returns oldest-first.
/// Internally locked: workers push concurrently, anyone may read.
class TraceStore {
 public:
  explicit TraceStore(std::size_t capacity = 32);

  void push(CapturedTrace t) EXCLUDES(mutex_);
  std::vector<CapturedTrace> recent() const EXCLUDES(mutex_);
  std::size_t size() const EXCLUDES(mutex_);
  /// Traces ever pushed (monotonic; captured() - evicted() = size()).
  std::uint64_t captured() const EXCLUDES(mutex_);
  std::uint64_t evicted() const EXCLUDES(mutex_);
  void clear() EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::size_t capacity_;
  std::deque<CapturedTrace> ring_ GUARDED_BY(mutex_);
  std::uint64_t captured_ GUARDED_BY(mutex_) = 0;
  std::uint64_t evicted_ GUARDED_BY(mutex_) = 0;
};

}  // namespace vebo::obs
