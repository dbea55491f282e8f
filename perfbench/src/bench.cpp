#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/trace.hpp"
#include "support/stats.hpp"

namespace perfbench {

void RunResult::fail_check(const std::string& why) {
  // Keep the report readable when one defect fails many samples.
  if (check_failures.size() < 20) check_failures.push_back(why);
  else if (check_failures.size() == 20)
    check_failures.push_back("(further check failures elided)");
}

// ---------------------------------------------------------------- spans

std::uint64_t now_ns() { return vebo::obs::Tracer::now_ns(); }

std::uint64_t SpanLog::next_id() {
  if (!enabled_) return 0;
  vebo::MutexLock lk(mutex_);
  return ++last_id_;
}

void SpanLog::add(const SpanRecord& s) {
  if (!enabled_) return;
  vebo::MutexLock lk(mutex_);
  spans_.push_back(s);
}

std::vector<SpanRecord> SpanLog::spans() const {
  vebo::MutexLock lk(mutex_);
  return spans_;
}

namespace {
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}
}  // namespace

Scope::Scope(SpanLog& log, const char* name, std::uint64_t parent,
             std::uint64_t tag)
    : log_(log) {
  rec_.name = name;
  rec_.parent = parent;
  rec_.tag = tag;
  rec_.id = log.next_id();
  rec_.start_ns = now_ns();
}

double Scope::stop() {
  if (!open_) return ms_;
  open_ = false;
  rec_.end_ns = now_ns();
  ms_ = static_cast<double>(rec_.end_ns - rec_.start_ns) * 1e-6;
  if (log_.enabled()) {
    rec_.tid = thread_index();
    log_.add(rec_);
  }
  return ms_;
}

void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path) {
  std::uint64_t base = ~std::uint64_t{0};
  for (const auto& s : spans) base = std::min(base, s.start_ns);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& s : spans) {
    const std::string name = s.name;
    const auto dot = name.find('.');
    out << (first ? "" : ",\n") << "{\"name\":\"" << name
        << "\",\"cat\":\""
        << (dot == std::string::npos ? "e2e" : name.substr(0, dot))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << static_cast<double>(s.start_ns - base) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"tag\":" << s.tag << "}}";
    first = false;
  }
  out << "\n]}\n";
}

std::map<std::string, SpanTotals> span_totals(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const auto& s : spans)
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  std::map<std::string, SpanTotals> out;
  for (const auto& s : spans) {
    // Union of the child intervals, clipped to the parent.
    std::uint64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t lo = 0, hi = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= hi) {
          hi = std::max(hi, b);
        } else {
          if (open) covered += hi - lo;
          lo = a;
          hi = b;
          open = true;
        }
      }
      if (open) covered += hi - lo;
    }
    const std::uint64_t dur = s.end_ns - s.start_ns;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(dur) * 1e-6;
    t.self_ms += static_cast<double>(dur - std::min(dur, covered)) * 1e-6;
  }
  return out;
}

// ----------------------------------------------------------- statistics

double pct(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : vebo::percentile(xs, p);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void add_query_metrics(RunResult& r, const std::vector<double>& latency_ms,
                       double wall_s) {
  const std::size_t n = latency_ms.size();
  r.end_to_end["qps"] = {static_cast<double>(n) / wall_s, "1/s", n};
  r.end_to_end["query_p50_ms"] = {pct(latency_ms, 50), "ms", n};
  r.end_to_end["query_p95_ms"] = {pct(latency_ms, 95), "ms", n};
  const double ok = static_cast<double>(r.attempted - r.failed);
  r.end_to_end["success_rate"] = {
      r.attempted == 0 ? 0.0 : ok / static_cast<double>(r.attempted),
      "ratio", static_cast<std::size_t>(r.attempted)};
}

bool close(double a, double b, double rel, double abs_floor) {
  if (a == b) return true;  // also equal infinities
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b)) +
                                abs_floor;
}

}  // namespace perfbench
