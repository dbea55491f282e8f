// Shared helpers for the benchmark binaries that regenerate the paper's
// tables and figures. Every bench prints a paper-style table plus the
// modeled 48-thread makespans (README, "Hardware substitutions").
#pragma once

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/permute.hpp"
#include "order/gorder.hpp"
#include "order/rcm.hpp"
#include "order/sort_order.hpp"
#include "order/vebo.hpp"
#include "parallel/thread_pool.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace vebo::bench {

/// Reads a positive numeric env knob; returns `def` when unset or when
/// the value is not positive after conversion to T (so "0.5" cannot
/// truncate an integer knob to 0).
template <typename T>
T env_knob(const char* name, T def) {
  if (const char* env = std::getenv(name)) {
    const T v = static_cast<T>(std::atof(env));
    if (v > T{0}) return v;
  }
  return def;
}

/// Scale knob for all benches: VEBO_BENCH_SCALE env var (default 0.25).
inline double bench_scale() { return env_knob("VEBO_BENCH_SCALE", 0.25); }

/// The paper's machine shape used by the makespan models.
inline constexpr std::size_t kPaperSockets = 4;
inline constexpr std::size_t kPaperThreadsPerSocket = 12;
inline constexpr std::size_t kPaperThreads =
    kPaperSockets * kPaperThreadsPerSocket;
/// The paper's GraphGrind partition count.
inline constexpr VertexId kPaperPartitions = 384;

/// Ordering identifiers in the paper's column order.
inline const std::vector<std::string>& ordering_names() {
  static const std::vector<std::string> names = {"Orig.", "RCM", "Gorder",
                                                 "VEBO"};
  return names;
}

/// Computes the named ordering permutation (VEBO uses `P` partitions).
inline Permutation compute_ordering(const std::string& name, const Graph& g,
                                    VertexId P = kPaperPartitions) {
  if (name == "Orig.") return order::original(g);
  if (name == "RCM") return order::rcm(g);
  if (name == "Gorder") return order::gorder(g);
  if (name == "VEBO") return order::vebo(g, P).perm;
  if (name == "Random") return order::random_order(g.num_vertices(), 7);
  throw Error("unknown ordering: " + name);
}

/// g's edges in out-CSR order: by source, then by target.
inline std::vector<Edge> edges_of(const Graph& g) {
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  g.for_each_edge([&](VertexId u, VertexId v) { edges.push_back({u, v}); });
  return edges;
}

/// Runs `fn` `reps` times and summarizes its wall time in milliseconds.
inline Summary sample_ms(const std::function<void()>& fn, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    ms.push_back(t.elapsed_ms());
  }
  return summarize(ms);
}

/// num / den, or 0 when den is not positive.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Writes `text` to `path`, replacing the file.
inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  f.close();
  if (!f) throw Error("cannot write " + path);
}

/// One JSON object of a bench record, fields in insertion order. A
/// measured value is a Summary, written as {median, min, max, n}; a
/// count, a label or a ratio of medians is a plain scalar.
class Fields {
 public:
  template <typename T>
    requires std::is_arithmetic_v<T>
  Fields& set(const std::string& key, T v) {
    std::ostringstream os;
    if constexpr (std::is_same_v<T, bool>)
      os << (v ? "true" : "false");
    else
      os << v;
    return add(key, os.str());
  }
  Fields& set(const std::string& key, const std::string& label) {
    return add(key, "\"" + label + "\"");
  }
  Fields& set(const std::string& key, const Summary& s) {
    return set(key, Fields()
                        .set("median", s.median)
                        .set("min", s.min)
                        .set("max", s.max)
                        .set("n", s.count));
  }
  Fields& set(const std::string& key, const Fields& object) {
    return add(key, object.text());
  }
  /// A list, one element per line.
  Fields& set(const std::string& key, const std::vector<Fields>& list) {
    std::string t = "[";
    for (std::size_t i = 0; i < list.size(); ++i)
      t += "\n  " + indented(list[i].text()) +
           (i + 1 < list.size() ? "," : "");
    return add(key, t + (list.empty() ? "]" : "\n]"));
  }

  /// The object on one line, except that each list element takes a line.
  std::string text() const {
    std::string t = "{";
    for (const auto& [key, value] : fields_)
      t += (t.size() > 1 ? ", \"" : "\"") + key + "\": " + value;
    return t + "}";
  }

 protected:
  /// `t` with every line after the first indented two more spaces.
  static std::string indented(const std::string& t) {
    std::string out;
    for (char c : t)
      out += c == '\n' ? std::string("\n  ") : std::string(1, c);
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;  ///< key, JSON

 private:
  Fields& add(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }
};

/// A bench's committed record, BENCH_<name>.json in the working
/// directory, and its one writer. The bench reads its env knobs through
/// knob(), so the settings block holds every knob's resolved value plus
/// the global pool's width. lock_settings() closes that block before
/// anything is timed: if the file exists and its settings line differs
/// from this run's, or it has none, the bench prints both lines and exits
/// 2, leaving the file as it is. To smoke-run, run from another
/// directory; to re-record at new settings, delete the file.
class Record : public Fields {
 public:
  explicit Record(const std::string& name)
      : name_(name), path_("BENCH_" + name + ".json") {}

  /// Reads an env knob (see env_knob) into the settings block.
  template <typename T>
  T knob(const char* env, T def) {
    VEBO_CHECK(!locked_, "bench::Record: knob read after lock_settings()");
    const T v = env_knob(env, def);
    settings_.set(env, v);
    return v;
  }

  /// Closes the settings block; exits 2 when the existing file was
  /// recorded at other settings.
  void lock_settings() {
    settings_.set("threads", ThreadPool::global_threads());
    locked_ = true;
    std::ifstream in(path_);
    if (!in) return;
    const std::string mine = "  " + settings_line() + ",";
    std::string line, recorded = "(no settings block)";
    while (std::getline(in, line))
      if (line.starts_with("  \"settings\": ")) {
        recorded = line;
        break;
      }
    if (recorded == mine) return;
    std::cerr << path_
              << " was recorded at other settings; it is left as it is.\n"
              << "  recorded: " << recorded << "\n"
              << "  this run: " << mine << "\n"
              << "Run from another directory to smoke-run, or delete "
              << path_ << " to re-record." << std::endl;
    std::exit(2);
  }

  /// The record's one headline, written last.
  void op_point(const Fields& headline) { op_point_ = headline; }

  void write() const {
    VEBO_CHECK(locked_ && op_point_.has_value(),
               "bench::Record: write() needs lock_settings() and an op_point");
    std::string t =
        "{\n  \"bench\": \"" + name_ + "\",\n  " + settings_line();
    for (const auto& [key, value] : fields_)
      t += ",\n  \"" + key + "\": " + indented(value);
    t += ",\n  \"op_point\": " + op_point_->text() + "\n}\n";
    write_file(path_, t);
    std::cout << "Wrote " << path_ << ", op_point " << op_point_->text()
              << std::endl;
  }

 private:
  std::string settings_line() const {
    return "\"settings\": " + settings_.text();
  }

  std::string name_, path_;
  Fields settings_;
  bool locked_ = false;
  std::optional<Fields> op_point_;
};

/// Prints a bench's banner with the dataset scale it runs at and the knob
/// that sets it; a bench with its own scale knob passes both.
inline void print_header(const std::string& what, double scale = bench_scale(),
                         const std::string& knob = "VEBO_BENCH_SCALE") {
  std::cout << "\n################################################\n"
            << "# " << what << "\n"
            << "# scale=" << scale << "  (set " << knob << " to change)\n"
            << "################################################\n";
}

}  // namespace vebo::bench
