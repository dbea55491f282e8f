// vebo-lint-fixture: ok
// Clean: each would-be violation carries a justified suppression, and a
// dense kernel body with only arithmetic stays silent.
#include <chrono>

long stamp_us() {
  // vebo-lint: disable=clock-calls -- fixture demonstrating a sanctioned site
  auto t = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}

template <typename Graph>
bool has_edges(const Graph& g) {
  // vebo-lint: disable=coo-readers -- fixture demonstrating a pinned reader
  return !g.coo().edges().empty();
}

const char* stage_label() {
  // vebo-lint: disable=metric-names -- span stage label, not a metric
  return "vebo_unpinned_stage_label";
}

template <typename Graph, typename F, typename Probe, typename Sink>
void edge_map_pull_range(const Graph& g, F& f, const Probe& probe,
                         Sink& sink, int lo, int hi, bool early_exit) {
  for (int v = lo; v < hi; ++v) {
    if (!f.cond(v)) continue;
    for (int u : g.in_neighbors(v)) {
      if (!probe(u)) continue;
      if (f.update(u, v)) sink.set(v);
      if (early_exit && !f.cond(v)) break;
    }
  }
}
