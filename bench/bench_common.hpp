// Shared helpers for the benchmark binaries that regenerate the paper's
// tables and figures. Every bench prints a paper-style table plus the
// modeled 48-thread makespans (README, "Hardware substitutions").
#pragma once

#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/permute.hpp"
#include "order/gorder.hpp"
#include "order/rcm.hpp"
#include "order/sort_order.hpp"
#include "order/vebo.hpp"
#include "support/error.hpp"
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

/// A graph together with all reordered variants (computed once).
struct OrderedGraphSet {
  std::string dataset;
  Graph original;
  std::map<std::string, Graph> by_order;       ///< ordering -> graph
  std::map<std::string, double> order_seconds; ///< reordering cost
};

inline OrderedGraphSet build_ordered_set(
    const std::string& dataset, double scale,
    const std::vector<std::string>& orderings = ordering_names()) {
  OrderedGraphSet set;
  set.dataset = dataset;
  set.original = gen::make_dataset(dataset, scale, /*seed=*/42);
  for (const auto& name : orderings) {
    Timer t;
    const Permutation perm = compute_ordering(name, set.original);
    const double dt = t.elapsed();
    set.order_seconds[name] = dt;
    set.by_order.emplace(name,
                         name == "Orig."
                             ? Graph::from_edges(set.original.coo())
                             : permute(set.original, perm));
  }
  return set;
}

/// Times `fn()` and returns seconds (median of `repeats` runs).
inline double time_median(const std::function<void()>& fn, int repeats = 3) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    Timer t;
    fn();
    times.push_back(t.elapsed());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

inline void print_header(const std::string& what) {
  std::cout << "\n################################################\n"
            << "# " << what << "\n"
            << "# scale=" << bench_scale()
            << "  (set VEBO_BENCH_SCALE to change)\n"
            << "################################################\n";
}

}  // namespace vebo::bench
