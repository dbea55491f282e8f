// MetricsRegistry: the unified metrics plane.
//
// Before this module every subsystem kept its own stats struct behind
// its own getter — GraphServiceStats, ResultCache's hit/miss/eviction
// counters, EnginePoolStats, SnapshotStoreStats, the VeboMaintainer's
// drift/rebalance counters — and nothing could scrape them uniformly.
// The registry puts them all behind one registration API, collectors,
// and one exposition format, prometheus_text(): the Prometheus text
// format (# HELP / # TYPE comments, name{label="v"} value lines),
// scrapeable as-is.
//
// add_collector(fn) registers a callback that emits MetricSamples at
// collection time. This absorbs the existing stats structs WITHOUT
// restructuring their locking: a component registers one collector
// that snapshots its stats (under its own locks, exactly as its stats()
// getter does) and emits each field as a sample. The returned
// Registration deregisters on destruction, so a dying component can
// never leave a dangling callback behind (the registry itself must
// outlive registrants).
//
// Thread-safety: registration, deregistration and collection serialize
// on one mutex. Collection calls collectors under that mutex —
// collectors must not call back into the same registry.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "support/annotated_mutex.hpp"

namespace vebo::obs {

enum class MetricType : std::uint8_t { Counter, Gauge, Summary };
const char* to_string(MetricType t);

/// One exposition sample: a name, optional labels, one value. Summary
/// quantiles are samples of the same name with a "quantile" label (plus
/// `<name>_sum` / `<name>_count` gauges, Prometheus-style).
struct MetricSample {
  std::string name;
  std::string help;
  MetricType type = MetricType::Gauge;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0;
};

class MetricsRegistry {
 public:
  using Collector = std::function<void(std::vector<MetricSample>&)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// RAII deregistration handle for add_collector. Move-only; releasing
  /// (or destroying) removes the callback. The registry must outlive
  /// every handle.
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& o) noexcept { *this = std::move(o); }
    Registration& operator=(Registration&& o) noexcept {
      release();
      registry_ = o.registry_;
      id_ = o.id_;
      o.registry_ = nullptr;
      return *this;
    }
    ~Registration() { release(); }
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;

    void release();
    bool active() const { return registry_ != nullptr; }

   private:
    friend class MetricsRegistry;
    Registration(MetricsRegistry* r, std::uint64_t id)
        : registry_(r), id_(id) {}

    MetricsRegistry* registry_ = nullptr;
    std::uint64_t id_ = 0;
  };

  /// Registers a scrape-time callback emitting samples.
  [[nodiscard]] Registration add_collector(Collector fn) EXCLUDES(mutex_);

  /// Snapshot of every collector's samples, in registration order.
  /// Collectors run UNDER mutex_ (that is what makes Registration's
  /// destructor block on an in-flight scrape), so they must not call
  /// back into this registry.
  std::vector<MetricSample> collect() const EXCLUDES(mutex_);

  /// Prometheus text exposition format.
  std::string prometheus_text() const;

 private:
  mutable Mutex mutex_;
  std::vector<std::pair<std::uint64_t, Collector>> collectors_
      GUARDED_BY(mutex_);
  std::uint64_t next_collector_id_ GUARDED_BY(mutex_) = 1;
};

}  // namespace vebo::obs
