// Command-line reordering tool, mirroring the paper's artifact workflow:
//
//   reorder_tool [-p partitions] [-a vebo|rcm|gorder|random] <input> <output>
//
// <input> is a Ligra "AdjacencyGraph" file, or the special form
// "gen:<dataset>[:<scale>]" to synthesize one of the paper's stand-in
// graphs (e.g. gen:twitter:0.25). The reordered graph — isomorphic to
// the input — is written to <output> in the same format, and the achieved
// balance is printed.
#include <algorithm>
#include <charconv>
#include <cstring>
#include <iostream>
#include <string>

#include "gen/datasets.hpp"
#include "graph/io.hpp"
#include "graph/permute.hpp"
#include "order/gorder.hpp"
#include "order/rcm.hpp"
#include "order/sort_order.hpp"
#include "order/vebo.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: reorder_tool [-p partitions] [-a vebo|rcm|gorder|random] "
         "<input> <output>\n"
         "  input:  AdjacencyGraph file, or gen:<dataset>[:<scale>]\n"
         "  output: AdjacencyGraph file ('-' for none)\n"
         "datasets: ";
  for (const auto& s : vebo::gen::dataset_specs()) std::cerr << s.name << " ";
  std::cerr << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vebo;
  // GraphGrind's 384, lowered to n on a smaller graph when -p is not
  // given; an explicit -p must lie in 1..n.
  VertexId partitions = 384;
  bool explicit_partitions = false;
  std::string algo = "vebo";
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-p") == 0 && i + 1 < argc) {
      // Base 10, no sign, nothing after the digits: "-1" and "4abc" are
      // errors, not counts.
      const char* arg = argv[++i];
      const char* end = arg + std::strlen(arg);
      const auto [ptr, ec] = std::from_chars(arg, end, partitions);
      if (ec != std::errc() || ptr != end) {
        std::cerr << "error: -p takes a partition count, got '" << arg
                  << "'\n";
        return 1;
      }
      explicit_partitions = true;
    } else if (std::strcmp(argv[i], "-a") == 0 && i + 1 < argc) {
      algo = argv[++i];
    } else if (std::strcmp(argv[i], "-h") == 0) {
      usage();
      return 0;
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  if (positional.size() != 2) {
    usage();
    return 1;
  }

  try {
    // Load or synthesize.
    Graph g;
    if (positional[0].rfind("gen:", 0) == 0) {
      std::string spec = positional[0].substr(4);
      double scale = 0.25;
      if (const auto colon = spec.find(':'); colon != std::string::npos) {
        scale = std::atof(spec.substr(colon + 1).c_str());
        spec = spec.substr(0, colon);
      }
      g = gen::make_dataset(spec, scale, 42);
    } else {
      g = io::read_adjacency_file(positional[0]);
    }
    std::cout << g.describe("input") << "\n";

    // Reorder.
    Timer t;
    Permutation perm;
    if (algo == "vebo") {
      if (!explicit_partitions) {
        partitions = std::clamp<VertexId>(g.num_vertices(), 1, partitions);
      } else if (partitions < 1 || partitions > g.num_vertices()) {
        std::cerr << "error: -p " << partitions
                  << " is outside 1.." << g.num_vertices()
                  << " (the vertex count)\n";
        return 1;
      }
      const auto r = order::vebo(g, partitions);
      perm = r.perm;
      std::cout << "VEBO (" << partitions
                << " partitions): Delta(n)=" << r.edge_imbalance()
                << " delta(n)=" << r.vertex_imbalance() << "\n";
    } else if (algo == "rcm") {
      perm = order::rcm(g);
    } else if (algo == "gorder") {
      perm = order::gorder(g);
    } else if (algo == "random") {
      perm = order::random_order(g.num_vertices(), 1);
    } else {
      std::cerr << "unknown algorithm: " << algo << "\n";
      return 1;
    }
    std::cout << algo << " reordering took " << t.elapsed() << " s\n";

    const Graph h = permute(g, perm);
    if (positional[1] != "-") {
      io::write_adjacency_file(positional[1], h);
      std::cout << "wrote " << positional[1] << " (isomorphic to input)\n";
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
