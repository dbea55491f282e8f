// vebo-lint-fixture: coo-readers
// Known-bad: library code reading a Graph's edges through the coo() view
// instead of walking them with Graph::for_each_edge.
#include <cstddef>

template <typename Graph>
std::size_t count_self_loops(const Graph& g) {
  std::size_t loops = 0;
  for (const auto& e : g.coo().edges())
    if (e.src == e.dst) ++loops;
  return loops;
}
