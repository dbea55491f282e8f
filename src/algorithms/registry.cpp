#include "algorithms/registry.hpp"

#include <unordered_map>

#include "algorithms/bc.hpp"
#include "algorithms/bellman_ford.hpp"
#include "algorithms/bfs.hpp"
#include "algorithms/bp.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_delta.hpp"
#include "algorithms/spmv.hpp"
#include "support/error.hpp"

namespace vebo::algo {

const std::vector<AlgorithmSpec>& specs() {
  static const std::vector<AlgorithmSpec> all = {
      bc_spec(),   cc_spec(),           pagerank_spec(), bfs_spec(),
      pagerank_delta_spec(), spmv_spec(), bellman_ford_spec(), bp_spec(),
  };
  return all;
}

const AlgorithmSpec* find_spec(std::string_view code) {
  // Index built once under the magic-static lock; lookups afterwards are
  // lock-free reads of an immutable map. Keys are string_views into the
  // (equally immutable) specs() entries.
  static const std::unordered_map<std::string_view, const AlgorithmSpec*>
      index = [] {
        std::unordered_map<std::string_view, const AlgorithmSpec*> m;
        for (const auto& s : specs()) m.emplace(s.code, &s);
        return m;
      }();
  const auto it = index.find(code);
  return it == index.end() ? nullptr : it->second;
}

const AlgorithmSpec& spec(const std::string& code) {
  if (const AlgorithmSpec* s = find_spec(code)) return *s;
  throw Error("unknown algorithm code: " + code);
}

}  // namespace vebo::algo
