#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace vebo::obs {

const char* to_string(MetricType t) {
  switch (t) {
    case MetricType::Counter: return "counter";
    case MetricType::Gauge: return "gauge";
    case MetricType::Summary: return "summary";
  }
  return "?";
}

void MetricsRegistry::Registration::release() {
  if (!registry_) return;
  MetricsRegistry* r = registry_;
  registry_ = nullptr;
  MutexLock lock(r->mutex_);
  auto& cs = r->collectors_;
  cs.erase(std::remove_if(cs.begin(), cs.end(),
                          [&](const auto& p) { return p.first == id_; }),
           cs.end());
}

MetricsRegistry::Registration MetricsRegistry::add_collector(Collector fn) {
  MutexLock lock(mutex_);
  const std::uint64_t id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(fn));
  return Registration(this, id);
}

std::vector<MetricSample> MetricsRegistry::collect() const {
  MutexLock lock(mutex_);
  std::vector<MetricSample> out;
  for (const auto& [id, fn] : collectors_) fn(out);
  return out;
}

namespace {

/// Prometheus label values escape backslash, double-quote and newline.
std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

void format_value(std::ostringstream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else if (v == std::floor(v) && std::fabs(v) < 1e15) {
    os << static_cast<long long>(v);
  } else {
    os << v;
  }
}

}  // namespace

std::string MetricsRegistry::prometheus_text() const {
  const std::vector<MetricSample> samples = collect();
  std::ostringstream os;
  // One HELP/TYPE header per metric name, emitted before its first
  // sample. Samples of one name arrive contiguously from well-behaved
  // collectors; a repeated name after a gap just repeats the header,
  // which scrapers tolerate.
  std::string last_name;
  for (const MetricSample& s : samples) {
    if (s.name != last_name) {
      if (!s.help.empty())
        os << "# HELP " << s.name << " " << s.help << "\n";
      os << "# TYPE " << s.name << " " << to_string(s.type) << "\n";
      last_name = s.name;
    }
    os << s.name;
    if (!s.labels.empty()) {
      os << "{";
      bool first = true;
      for (const auto& [k, v] : s.labels) {
        if (!first) os << ",";
        first = false;
        os << k << "=\"" << escape_label(v) << "\"";
      }
      os << "}";
    }
    os << " ";
    format_value(os, s.value);
    os << "\n";
  }
  return os.str();
}

}  // namespace vebo::obs
