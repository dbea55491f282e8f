#include "graph/io.hpp"

#include <fstream>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace vebo::io {

void write_adjacency(std::ostream& os, const Graph& g) {
  const Csr& csr = g.out_csr();
  os << "AdjacencyGraph\n" << g.num_vertices() << "\n" << g.num_edges()
     << "\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    os << csr.offsets()[v] << "\n";
  for (VertexId u : csr.neighbor_array()) os << u << "\n";
}

void write_adjacency_file(const std::string& path, const Graph& g) {
  std::ofstream os(path);
  VEBO_CHECK(os.good(), "cannot open for writing: " + path);
  write_adjacency(os, g);
}

Graph read_adjacency(std::istream& is, bool directed) {
  std::string header;
  is >> header;
  VEBO_CHECK(header == "AdjacencyGraph",
             "expected 'AdjacencyGraph' header, got '" + header + "'");
  std::uint64_t n = 0, m = 0;
  is >> n >> m;
  VEBO_CHECK(is.good(), "truncated adjacency header");
  VEBO_CHECK(n <= kInvalidVertex, "vertex count out of range");
  // Reject absurd counts before allocating: every offset/target costs at
  // least two bytes of text ("0\n"), so a seekable stream bounds how
  // many entries the header can honestly promise. A crafted "n = 10^15"
  // header must fail here, not inside a 8 PB vector allocation.
  const auto body_start = is.tellg();
  if (body_start != std::istream::pos_type(-1)) {
    is.seekg(0, std::ios::end);
    const auto end = is.tellg();
    is.seekg(body_start);
    if (end != std::istream::pos_type(-1) && end >= body_start) {
      const std::uint64_t remaining =
          static_cast<std::uint64_t>(end - body_start);
      VEBO_CHECK(n <= remaining / 2 && m <= remaining / 2,
                 "counts implausible for stream size");
    }
  }
  std::vector<EdgeId> offsets(n + 1, 0);
  for (std::uint64_t v = 0; v < n; ++v) {
    is >> offsets[v];
    VEBO_CHECK(!is.fail(), "truncated offsets");
  }
  offsets[n] = m;
  std::vector<VertexId> targets(m);
  for (std::uint64_t e = 0; e < m; ++e) {
    is >> targets[e];
    VEBO_CHECK(!is.fail(), "truncated edge targets");
  }
  // Like Ligra's reader, require exactly 3 + n + m tokens: a header that
  // under-counts n or m would otherwise drop the file's last edges.
  std::string extra;
  VEBO_CHECK(!(is >> extra),
             "adjacency text holds more than 3 + n + m tokens (n = " +
                 std::to_string(n) + ", m = " + std::to_string(m) +
                 ", next token '" + extra + "')");
  // Validate the row table before indexing targets[] with it: offsets
  // start at 0 and rise monotonically to offsets[n] = m.
  VEBO_CHECK(offsets[0] == 0, "offsets must start at 0");
  for (std::uint64_t v = 0; v < n; ++v)
    VEBO_CHECK(offsets[v] <= offsets[v + 1], "offsets not monotone");
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::uint64_t v = 0; v < n; ++v)
    for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
      VEBO_CHECK(targets[e] < n, "target vertex out of range");
      edges.push_back({static_cast<VertexId>(v), targets[e]});
    }
  return Graph::from_edges(
      EdgeList(static_cast<VertexId>(n), std::move(edges), directed));
}

Graph read_adjacency_file(const std::string& path, bool directed) {
  std::ifstream is(path);
  VEBO_CHECK(is.good(), "cannot open for reading: " + path);
  return read_adjacency(is, directed);
}

}  // namespace vebo::io
