// Streaming demo: a social graph absorbing follow/unfollow traffic while
// analytics queries keep running — batched updates through StreamSession,
// whose VEBO maintainer rebalances the partitions when they drift; each
// batch prints its rebalance action. At the defaults every rebalance is a
// full VEBO run (6 of 20 batches): by the time the partitions drift past
// the bound, more than a quarter of the vertices are dirty, too many for
// an incremental refinement.
//
//   ./example_streaming_demo [batches=20] [batch_size=2000]
#include <cstdlib>
#include <iostream>

#include "gen/datasets.hpp"
#include "stream/session.hpp"
#include "support/prng.hpp"

using namespace vebo;
using stream::EdgeUpdate;

int main(int argc, char** argv) {
  const int batches = argc > 1 ? std::atoi(argv[1]) : 20;
  const int batch_size = argc > 2 ? std::atoi(argv[2]) : 2000;

  const Graph start = gen::make_dataset("orkut", 0.25, /*seed=*/7);
  std::cout << start.describe("start") << "\n";

  stream::SessionOptions opts;
  opts.model = SystemModel::Polymer;
  opts.rebalance.partitions = 4;
  opts.rebalance.edge_drift = 0.05;
  stream::StreamSession session(start, opts);

  Xoshiro256 rng(2026);
  const VertexId n = start.num_vertices();
  for (int b = 0; b < batches; ++b) {
    // Skewed arrival pattern: a rotating band of "trending" accounts
    // receives most follows; a trickle of unfollows mixes in.
    std::vector<EdgeUpdate> batch;
    const VertexId hot = static_cast<VertexId>((b * 97) % n);
    for (int i = 0; i < batch_size; ++i) {
      const VertexId src = static_cast<VertexId>(rng.next_below(n));
      const VertexId dst = rng.next_below(4) == 0
                               ? static_cast<VertexId>(rng.next_below(n))
                               : (hot + static_cast<VertexId>(
                                            rng.next_below(64))) % n;
      batch.push_back(rng.next_below(12) == 0
                          ? EdgeUpdate::remove(src, dst)
                          : EdgeUpdate::insert(src, dst));
    }
    const auto out = session.apply(batch);
    std::cout << "batch " << b << ": +" << out.applied.inserted << " -"
              << out.applied.removed << " edges, rebalance="
              << (out.rebalance == stream::RebalanceAction::None
                      ? "none"
                      : out.rebalance == stream::RebalanceAction::Incremental
                            ? "incremental"
                            : "FULL")
              << ", |E|=" << session.delta().num_edges();
    if (b % 5 == 4) {
      const double comps = session.query("CC");
      const double reach = session.query("BFS", hot);
      std::cout << "  [query: " << comps << " components, BFS(" << hot
                << ") reaches " << reach << "]";
    }
    std::cout << "\n";
  }

  const auto& st = session.stats();
  const auto& rb = session.maintainer().stats();
  std::cout << "\napplied " << st.batches << " batches (+" << st.inserted
            << "/-" << st.removed << "), " << st.queries << " queries over "
            << st.snapshots << " snapshots, rebalances: " << rb.incremental
            << " incremental / " << rb.full << " full, final imbalance Δ="
            << session.maintainer().edge_imbalance()
            << " δ=" << session.maintainer().vertex_imbalance() << "\n";
  return 0;
}
