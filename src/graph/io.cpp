#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "support/error.hpp"

namespace vebo::io {

namespace {
constexpr std::uint64_t kBinaryMagic = 0x5645424f47524148ULL;  // "VEBOGRAH"
// Version 1 was the seed's unversioned header (magic directly followed by
// n); version 2 added this explicit field. Bump on any layout change.
constexpr std::uint32_t kBinaryVersion = 2;

}  // namespace

std::uint32_t binary_format_version() { return kBinaryVersion; }

namespace {
/// Shared validation for an untrusted CSR row table before any indexing:
/// the offsets must start at 0, be monotone, and end exactly at the edge
/// array's size — otherwise graph_from_csr_rows below would read
/// targets[] out of bounds on hostile input.
void check_csr_rows(VertexId n, const std::vector<EdgeId>& offsets,
                    std::uint64_t num_targets) {
  VEBO_CHECK(offsets.size() == static_cast<std::size_t>(n) + 1,
             "offset table size mismatch");
  VEBO_CHECK(offsets[0] == 0, "offsets must start at 0");
  for (VertexId v = 0; v < n; ++v)
    VEBO_CHECK(offsets[v] <= offsets[v + 1], "offsets not monotone");
  VEBO_CHECK(static_cast<std::uint64_t>(offsets[n]) == num_targets,
             "offset table does not cover the edge array");
}

Graph graph_from_csr_rows(VertexId n, const std::vector<EdgeId>& offsets,
                          const std::vector<VertexId>& targets,
                          bool directed) {
  check_csr_rows(n, offsets, targets.size());
  std::vector<Edge> edges;
  edges.reserve(targets.size());
  for (VertexId v = 0; v < n; ++v)
    for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
      VEBO_CHECK(targets[e] < n, "target vertex out of range");
      edges.push_back({v, targets[e]});
    }
  return Graph::from_edges(EdgeList(n, std::move(edges), directed));
}
}  // namespace

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
  return graph_from_csr_rows(static_cast<VertexId>(n), offsets, targets,
                             directed);
}

Graph read_adjacency_file(const std::string& path, bool directed) {
  std::ifstream is(path);
  VEBO_CHECK(is.good(), "cannot open for reading: " + path);
  return read_adjacency(is, directed);
}

void write_edge_list(std::ostream& os, const Graph& g) {
  g.for_each_edge(
      [&](VertexId u, VertexId v) { os << u << " " << v << "\n"; });
}

EdgeList read_edge_list(std::istream& is, VertexId n) {
  std::vector<Edge> edges;
  VertexId max_id = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t s = 0, d = 0;
    if (!(ls >> s >> d)) continue;
    VEBO_CHECK(s < kInvalidVertex && d < kInvalidVertex,
               "vertex id " + std::to_string(std::max(s, d)) +
                   " out of range (ids must be below 4294967295, the "
                   "reserved invalid-vertex sentinel)");
    edges.push_back({static_cast<VertexId>(s), static_cast<VertexId>(d)});
    max_id = std::max({max_id, static_cast<VertexId>(s),
                       static_cast<VertexId>(d)});
  }
  const VertexId count = n > 0 ? n : (edges.empty() ? 0 : max_id + 1);
  return EdgeList(count, std::move(edges), /*directed=*/true);
}

void write_binary_file(const std::string& path, const Graph& g) {
  std::ofstream os(path, std::ios::binary);
  VEBO_CHECK(os.good(), "cannot open for writing: " + path);
  auto put = [&os](const void* p, std::size_t bytes) {
    os.write(static_cast<const char*>(p), static_cast<std::streamsize>(bytes));
  };
  const std::uint64_t n = g.num_vertices(), m = g.num_edges();
  const std::uint8_t dir = g.directed() ? 1 : 0;
  put(&kBinaryMagic, sizeof kBinaryMagic);
  put(&kBinaryVersion, sizeof kBinaryVersion);
  put(&n, sizeof n);
  put(&m, sizeof m);
  put(&dir, sizeof dir);
  const Csr& csr = g.out_csr();
  put(csr.offsets().data(), csr.offsets().size() * sizeof(EdgeId));
  put(csr.neighbor_array().data(),
      csr.neighbor_array().size() * sizeof(VertexId));
  VEBO_CHECK(os.good(), "write failed: " + path);
}

Graph read_binary_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  VEBO_CHECK(is.good(), "cannot open for reading: " + path);
  auto get = [&is, &path](void* p, std::size_t bytes) {
    is.read(static_cast<char*>(p), static_cast<std::streamsize>(bytes));
    VEBO_CHECK(is.gcount() == static_cast<std::streamsize>(bytes),
               "truncated binary graph: " + path);
  };
  std::uint64_t magic = 0, n = 0, m = 0;
  std::uint32_t version = 0;
  std::uint8_t dir = 1;
  get(&magic, sizeof magic);
  VEBO_CHECK(magic == kBinaryMagic, "bad magic in binary graph: " + path);
  get(&version, sizeof version);
  VEBO_CHECK(version == kBinaryVersion,
             "unsupported binary graph version " + std::to_string(version) +
                 " (expected " + std::to_string(kBinaryVersion) +
                 "): " + path);
  get(&n, sizeof n);
  get(&m, sizeof m);
  get(&dir, sizeof dir);
  // A pre-version (v1) file can alias the version field (its n's low 32
  // bits), shifting every later read. The exact payload size the header
  // implies catches that — and any truncation — before allocating.
  VEBO_CHECK(n <= kInvalidVertex, "vertex count out of range: " + path);
  is.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  // Bound both counts before the multiplies below so a crafted huge n or
  // m cannot wrap `expected` around and dodge the size check (and so the
  // vector allocations below are bounded by the actual file size).
  VEBO_CHECK(n <= file_size / sizeof(EdgeId),
             "vertex count implausible for file size: " + path);
  VEBO_CHECK(m <= file_size / sizeof(VertexId),
             "edge count implausible for file size: " + path);
  const std::uint64_t expected = sizeof kBinaryMagic + sizeof version +
                                 sizeof n + sizeof m + sizeof dir +
                                 (n + 1) * sizeof(EdgeId) +
                                 m * sizeof(VertexId);
  VEBO_CHECK(file_size == expected,
             "binary graph size mismatch (truncated or legacy format): " +
                 path);
  is.seekg(sizeof kBinaryMagic + sizeof version + sizeof n + sizeof m +
           sizeof dir);
  std::vector<EdgeId> offsets(n + 1);
  std::vector<VertexId> targets(m);
  get(offsets.data(), offsets.size() * sizeof(EdgeId));
  get(targets.data(), targets.size() * sizeof(VertexId));
  return graph_from_csr_rows(static_cast<VertexId>(n), offsets, targets,
                             dir != 0);
}

}  // namespace vebo::io
