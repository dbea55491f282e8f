#include "obs/recorder.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/error.hpp"

namespace vebo::obs {

/// Thread-exit hook: holds the thread's ring registration and stamps it
/// retired on destruction, so dump() keeps exporting an exited worker's
/// last spans until they age out of the window.
struct RecorderTls {
  std::shared_ptr<FlightRecorder::Ring> ring;
  ~RecorderTls() {
    if (ring != nullptr)
      ring->retired_ns.store(detail::now_ns(), std::memory_order_release);
  }
};

namespace {
thread_local RecorderTls t_recorder;
}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::arm(RecorderOptions opts) {
  VEBO_CHECK(opts.ring_capacity >= 1,
             "FlightRecorder: ring_capacity must be >= 1");
  VEBO_CHECK(opts.window_ns >= 1, "FlightRecorder: window_ns must be >= 1");
  MutexLock lk(mutex_);
  opts_ = opts;
  detail::g_recorder_min_span_ns.store(opts_.min_span_ns,
                                       std::memory_order_relaxed);
  // Re-size live rings so re-arming with a different capacity takes
  // effect without waiting for threads to re-register.
  for (auto& r : rings_) {
    MutexLock rlk(r->mutex);
    if (r->spans.capacity() != opts_.ring_capacity)
      r->spans.reset(opts_.ring_capacity);
  }
  if (!armed_.load(std::memory_order_relaxed)) {
    // One bit in the packed word trace.hpp's sites poll: disarmed
    // StageScopes keep paying exactly one relaxed load.
    detail::g_active_traces.fetch_add(detail::kRecorderArmedBit,
                                      std::memory_order_relaxed);
    armed_.store(true, std::memory_order_relaxed);
  }
}

void FlightRecorder::disarm() {
  MutexLock lk(mutex_);
  if (!armed_.load(std::memory_order_relaxed)) return;
  armed_.store(false, std::memory_order_relaxed);
  detail::g_active_traces.fetch_sub(detail::kRecorderArmedBit,
                                    std::memory_order_relaxed);
}

FlightRecorder::Ring& FlightRecorder::local_ring() {
  if (t_recorder.ring == nullptr) {
    auto ring = std::make_shared<Ring>();
    {
      MutexLock lk(mutex_);
      ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
      ring->spans.reset(opts_.ring_capacity);
      rings_.push_back(ring);
    }
    t_recorder.ring = std::move(ring);
  }
  return *t_recorder.ring;
}

void FlightRecorder::record(const Span& s) {
  if (!armed()) return;
  Ring& r = local_ring();
  // Uncontended in steady state: only dump() (the freeze) ever takes
  // this mutex from another thread.
  MutexLock lk(r.mutex);
  r.spans.push(s);
}

FlightDump FlightRecorder::take_dump(const std::string& reason) {
  FlightDump d;
  d.seq = ++dump_seq_;
  d.taken_ns = detail::now_ns();
  d.window_ns = opts_.window_ns;
  d.reason = reason;
  const std::uint64_t horizon =
      d.taken_ns >= opts_.window_ns ? d.taken_ns - opts_.window_ns : 0;
  for (auto it = rings_.begin(); it != rings_.end();) {
    Ring& r = **it;
    bool contributed = false;
    {
      MutexLock rlk(r.mutex);
      d.dropped += r.spans.dropped();
      r.spans.for_each([&](const Span& s) {
        if (s.start_ns + s.dur_ns < horizon) return;
        d.spans.push_back({s, r.tid});
        contributed = true;
      });
    }
    if (contributed) ++d.threads;
    // Prune rings whose thread exited AND whose spans all aged out —
    // the registry stays bounded by live threads plus a window of dead
    // ones.
    const std::uint64_t retired =
        r.retired_ns.load(std::memory_order_acquire);
    if (!contributed && retired != 0 && retired < horizon) {
      it = rings_.erase(it);
      continue;
    }
    ++it;
  }
  std::stable_sort(d.spans.begin(), d.spans.end(),
                   [](const RecordedSpan& x, const RecordedSpan& y) {
                     return x.span.start_ns < y.span.start_ns;
                   });
  return d;
}

FlightDump FlightRecorder::dump(const std::string& reason) {
  MutexLock lk(mutex_);
  last_dump_ = take_dump(reason);
  return last_dump_;
}

bool FlightRecorder::trigger(const std::string& reason) {
  if (!armed()) return false;
  const std::uint64_t now = detail::now_ns();
  std::uint64_t last = last_trigger_ns_.load(std::memory_order_relaxed);
  std::uint64_t gap;
  {
    MutexLock lk(mutex_);
    gap = opts_.min_trigger_gap_ns;
  }
  if (last != 0 && now - last < gap) return false;
  // One winner per gap: a losing CAS means a concurrent trigger dumped.
  if (!last_trigger_ns_.compare_exchange_strong(last, now,
                                                std::memory_order_relaxed))
    return false;
  MutexLock lk(mutex_);
  last_dump_ = take_dump(reason);
  ++triggers_;
  return true;
}

FlightDump FlightRecorder::last_dump() const {
  MutexLock lk(mutex_);
  return last_dump_;
}

std::uint64_t FlightRecorder::dumps() const {
  MutexLock lk(mutex_);
  return dump_seq_;
}

std::uint64_t FlightRecorder::triggers() const {
  MutexLock lk(mutex_);
  return triggers_;
}

void StageScope::init(SpanKind kind, std::uint32_t armed_word) {
  // Route to whichever sinks are actually on: the thread's own trace
  // (tracing / tail sampling), the process recorder, or both. Both
  // flags come from the packed word the ctor already loaded — the
  // recorder bit mirrors FlightRecorder::armed(), so no singleton call
  // here; the low bits only say a trace MAY be live somewhere, so the
  // thread-local id check decides the trace sink.
  to_trace_ = (armed_word & (detail::kRecorderArmedBit - 1)) != 0 &&
              detail::thread_tracing_slow();
  to_recorder_ = (armed_word & detail::kRecorderArmedBit) != 0;
  if (!live()) return;
  span_.kind = kind;
  span_.start_ns = detail::now_ns();
}

void StageScope::finish() {
  span_.dur_ns = detail::now_ns() - span_.start_ns;
  if (to_trace_) detail::record(span_);
  if (to_recorder_ &&
      span_.dur_ns >= detail::g_recorder_min_span_ns.load(
                          std::memory_order_relaxed))
    FlightRecorder::instance().record(span_);
}

void record_stage(const Span& s) {
  const std::uint32_t armed =
      detail::g_active_traces.load(std::memory_order_relaxed);
  if ((armed & (detail::kRecorderArmedBit - 1)) != 0 &&
      detail::thread_tracing_slow())
    detail::record(s);
  if ((armed & detail::kRecorderArmedBit) != 0 &&
      s.dur_ns >= detail::g_recorder_min_span_ns.load(
                      std::memory_order_relaxed))
    FlightRecorder::instance().record(s);
}

std::string to_chrome_trace_json(const FlightDump& d) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  // Timeline zero: the window start (or the earliest span if it pokes
  // out past the horizon — spans ENDING in-window may start before it).
  std::uint64_t base =
      d.taken_ns >= d.window_ns ? d.taken_ns - d.window_ns : 0;
  if (!d.spans.empty())
    base = std::min(base, d.spans.front().span.start_ns);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
     << "\"args\":{\"name\":\"flight recorder dump " << d.seq << " ("
     << d.reason << ")\"}}";
  std::map<std::uint32_t, std::uint64_t> per_thread;
  for (const RecordedSpan& rs : d.spans) ++per_thread[rs.tid];
  for (const auto& [tid, count] : per_thread)
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"recorded thread " << tid << " (" << count
       << " spans)\"}}";
  for (const RecordedSpan& rs : d.spans)
    detail::append_chrome_event(os, rs.span, rs.tid, base);
  os << "],\"otherData\":{\"dump_seq\":\"" << d.seq << "\",\"reason\":\""
     << d.reason << "\",\"threads\":\"" << d.threads << "\",\"dropped\":\""
     << d.dropped << "\",\"window_ms\":\""
     << static_cast<double>(d.window_ns) / 1e6 << "\"}}";
  return os.str();
}

}  // namespace vebo::obs
