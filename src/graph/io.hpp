// Graph I/O in Ligra's "AdjacencyGraph" text format, the one format the
// paper's artifact reads and writes.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace vebo::io {

/// Writes the Ligra adjacency format:
///   AdjacencyGraph\n n\n m\n  <n offsets>\n... <m targets>\n...
void write_adjacency(std::ostream& os, const Graph& g);
void write_adjacency_file(const std::string& path, const Graph& g);

/// Reads the Ligra adjacency format. As strict as Ligra's reader: the
/// stream must hold exactly 3 + n + m tokens, the offsets must form a
/// valid row table over the m targets, and every target must be < n.
/// Throws vebo::Error otherwise.
Graph read_adjacency(std::istream& is, bool directed = true);
Graph read_adjacency_file(const std::string& path, bool directed = true);

}  // namespace vebo::io
