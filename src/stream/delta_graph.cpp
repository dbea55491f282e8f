#include "stream/delta_graph.hpp"

#include <algorithm>

#include "graph/permute.hpp"
#include "parallel/parallel_for.hpp"
#include "support/error.hpp"

namespace vebo::stream {

namespace {

bool row_contains(std::span<const VertexId> row, VertexId w) {
  return std::binary_search(row.begin(), row.end(), w);
}

bool sorted_contains(const std::vector<VertexId>& xs, VertexId w) {
  return std::binary_search(xs.begin(), xs.end(), w);
}

/// Rebuilds one source's delta lists by a single linear merge with its
/// sorted run of canonical updates (strictly ascending dst). The liveness
/// effect of each update (+1 edge becomes live, -1 becomes dead, 0 no-op)
/// goes to the matching slot of `effect`, and the list mutation is fully
/// determined by it: +1 drops a tombstone (base edge) or appends an add,
/// -1 appends a tombstone or drops an add. Linear in |adds| + |dels| +
/// |run| plus a base binary search per update — a hub absorbing a whole
/// batch stays O(batch), not quadratic. Returns the net degree delta.
std::int64_t merge_apply_block(std::span<const VertexId> base,
                               std::vector<VertexId>& adds,
                               std::vector<VertexId>& dels,
                               std::span<const EdgeUpdate> run,
                               std::span<std::int8_t> effect) {
  std::vector<VertexId> new_adds, new_dels;
  new_adds.reserve(adds.size() + run.size());
  new_dels.reserve(dels.size() + run.size());
  std::size_t ia = 0, id = 0;
  std::int64_t delta = 0;
  for (std::size_t i = 0; i < run.size(); ++i) {
    const VertexId w = run[i].dst;
    while (ia < adds.size() && adds[ia] < w) new_adds.push_back(adds[ia++]);
    while (id < dels.size() && dels[id] < w) new_dels.push_back(dels[id++]);
    const bool in_adds = ia < adds.size() && adds[ia] == w;
    const bool in_dels = id < dels.size() && dels[id] == w;
    const bool in_base = row_contains(base, w);
    const bool live = in_base ? !in_dels : in_adds;
    const std::int8_t e = run[i].kind == UpdateKind::Insert ? (live ? 0 : 1)
                                                           : (live ? -1 : 0);
    effect[i] = e;
    if (in_adds) {
      ++ia;
      if (!(e < 0 && !in_base)) new_adds.push_back(w);  // else: drop add
    }
    if (in_dels) {
      ++id;
      if (!(e > 0 && in_base)) new_dels.push_back(w);  // else: resurrect
    }
    if (e > 0 && !in_base) new_adds.push_back(w);           // fresh add
    if (e < 0 && in_base && !in_dels) new_dels.push_back(w);  // tombstone
    delta += e;
  }
  while (ia < adds.size()) new_adds.push_back(adds[ia++]);
  while (id < dels.size()) new_dels.push_back(dels[id++]);
  adds.swap(new_adds);
  dels.swap(new_dels);
  return delta;
}

}  // namespace

DeltaGraph::DeltaGraph(const Graph& base)
    : n_(base.num_vertices()),
      m_(base.num_edges()),
      directed_(base.directed()),
      base_n_(base.num_vertices()),
      base_out_(base.out_csr()),
      out_blocks_(n_),
      out_deg_(n_),
      in_deg_(n_) {
  for (VertexId v = 0; v < n_; ++v) {
    out_deg_[v] = base_out_.degree(v);
    in_deg_[v] = base.in_degree(v);
  }
}

DeltaGraph::DeltaGraph(VertexId n, bool directed)
    : n_(n),
      directed_(directed),
      base_n_(0),
      out_blocks_(n),
      out_deg_(n, 0),
      in_deg_(n, 0) {}

bool DeltaGraph::has_edge(VertexId u, VertexId v) const {
  if (u >= n_ || v >= n_) return false;
  const Block& b = out_blocks_[u];
  if (row_contains(base_row(u), v))
    return !sorted_contains(b.dels, v);
  return sorted_contains(b.adds, v);
}

void DeltaGraph::grow_to(VertexId n) {
  if (n <= n_) return;
  out_blocks_.resize(n);
  out_deg_.resize(n, 0);
  in_deg_.resize(n, 0);
  n_ = n;
}

ApplyResult DeltaGraph::apply_batch(std::span<const EdgeUpdate> batch) {
  ApplyResult res;
  if (batch.empty()) return res;

  // Grow the vertex set to cover every endpoint in the batch.
  VertexId max_id = 0;
  for (const EdgeUpdate& u : batch)
    max_id = std::max({max_id, u.src, u.dst});
  VEBO_CHECK(max_id < kInvalidVertex, "apply_batch: invalid vertex id");
  if (max_id >= n_) {
    res.grew_vertices = max_id + 1 - n_;
    grow_to(max_id + 1);
  }

  // Undirected graphs keep both orientations of every edge (the Graph
  // invariant `symmetrize` establishes), so mirror each update before
  // dedup; batch order is preserved so last-wins stays consistent for
  // the pair.
  std::vector<EdgeUpdate> mirrored;
  if (!directed_) {
    mirrored.reserve(batch.size() * 2);
    for (const EdgeUpdate& u : batch) {
      mirrored.push_back(u);
      if (u.src != u.dst) mirrored.push_back({u.dst, u.src, u.kind});
    }
    batch = mirrored;
  }

  // Dedup within the batch: last update to each (src, dst) wins. Sorting
  // (src, dst, seq) and keeping each group's final element costs the
  // O(B log B) dedup sort; everything after is linear in the batch plus
  // the touched delta blocks.
  std::vector<EdgeUpdate> canon;
  {
    std::vector<std::pair<EdgeUpdate, std::uint32_t>> seq(batch.size());
    for (std::uint32_t i = 0; i < batch.size(); ++i) seq[i] = {batch[i], i};
    std::sort(seq.begin(), seq.end(),
              [](const auto& a, const auto& b) {
                if (a.first.src != b.first.src) return a.first.src < b.first.src;
                if (a.first.dst != b.first.dst) return a.first.dst < b.first.dst;
                return a.second < b.second;
              });
    canon.reserve(seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const bool last_of_group =
          i + 1 == seq.size() || seq[i].first.src != seq[i + 1].first.src ||
          seq[i].first.dst != seq[i + 1].first.dst;
      if (last_of_group) canon.push_back(seq[i].first);
    }
  }

  // Segment the canonical updates (sorted by src, dst) into per-source
  // groups for the out-direction pass.
  std::vector<std::uint32_t> src_group_begin;
  for (std::uint32_t i = 0; i < canon.size(); ++i)
    if (i == 0 || canon[i].src != canon[i - 1].src)
      src_group_begin.push_back(i);
  src_group_begin.push_back(static_cast<std::uint32_t>(canon.size()));

  // Out-direction pass: each touched source's block is rebuilt by one
  // worker, which records the liveness effect of every canonical update
  // (+1 edge became live, -1 edge became dead, 0 no-op) so the in-degree
  // fold and the count bookkeeping agree with it exactly.
  std::vector<std::int8_t> effect(canon.size(), 0);
  std::vector<std::int64_t> block_growth(src_group_begin.size() - 1, 0);
  parallel_for(0, src_group_begin.size() - 1, [&](std::size_t gi) {
    const std::uint32_t lo = src_group_begin[gi], hi = src_group_begin[gi + 1];
    const VertexId u = canon[lo].src;
    Block& b = out_blocks_[u];
    const auto before =
        static_cast<std::int64_t>(b.adds.size() + b.dels.size());
    const std::int64_t delta = merge_apply_block(
        base_row(u), b.adds, b.dels,
        std::span<const EdgeUpdate>(canon).subspan(lo, hi - lo),
        std::span<std::int8_t>(effect).subspan(lo, hi - lo));
    out_deg_[u] = static_cast<EdgeId>(
        static_cast<std::int64_t>(out_deg_[u]) + delta);
    block_growth[gi] =
        static_cast<std::int64_t>(b.adds.size() + b.dels.size()) - before;
  });

  // The effective arcs, and their (dst, +-1) pairs for the in-degree
  // fold: sorted by destination and summed per destination, zero sums
  // dropped, so `in_degree_delta` lists each changed vertex once in
  // ascending order (DeltaGraph.RandomBatchesSnapshotEquivalence pins it).
  std::vector<std::pair<VertexId, std::int64_t>> by_dst;
  for (std::size_t i = 0; i < effect.size(); ++i) {
    if (effect[i] == 0) continue;
    by_dst.push_back({canon[i].dst, effect[i]});
    if (effect[i] > 0) {
      ++res.inserted;
      res.inserted_edges.push_back({canon[i].src, canon[i].dst});
    } else {
      ++res.removed;
      res.removed_edges.push_back({canon[i].src, canon[i].dst});
    }
  }
  m_ = static_cast<EdgeId>(static_cast<std::int64_t>(m_) +
                           static_cast<std::int64_t>(res.inserted) -
                           static_cast<std::int64_t>(res.removed));
  std::sort(by_dst.begin(), by_dst.end());
  for (std::size_t i = 0; i < by_dst.size();) {
    const VertexId v = by_dst[i].first;
    std::int64_t d = 0;
    for (; i < by_dst.size() && by_dst[i].first == v; ++i)
      d += by_dst[i].second;
    if (d == 0) continue;
    in_deg_[v] =
        static_cast<EdgeId>(static_cast<std::int64_t>(in_deg_[v]) + d);
    res.in_degree_delta.push_back({v, d});
  }

  // Pending-delta gauge: net growth of the touched out-direction blocks.
  std::int64_t dd = 0;
  for (std::int64_t g : block_growth) dd += g;
  delta_edges_ = static_cast<EdgeId>(static_cast<std::int64_t>(delta_edges_) +
                                     dd);

  return res;
}

Graph DeltaGraph::snapshot(std::span<const VertexId> perm) const {
  VEBO_CHECK(perm.size() == n_, "snapshot: permutation size != vertex count");
  return permute_rows(
      perm, directed_, [&](VertexId v) { return in_deg_[v]; },
      [&](VertexId u, auto&& emit) { for_each_out(u, emit); });
}

Graph DeltaGraph::snapshot() const {
  return snapshot(identity_permutation(n_));
}

void DeltaGraph::compact() {
  // Merge the blocks straight into the new base — no COO build and no
  // copy of the freshly merged arrays.
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n_) + 1, 0);
  const EdgeId total =
      n_ == 0 ? 0 : exclusive_scan(out_deg_.data(), offsets.data(), n_);
  offsets[n_] = total;
  std::vector<VertexId> neighbors(total);
  parallel_for(0, n_, [&](std::size_t v) {
    EdgeId e = offsets[v];
    for_each_out(static_cast<VertexId>(v),
                 [&](VertexId w) { neighbors[e++] = w; });
    VEBO_ASSERT(e == offsets[v + 1]);
  });
  base_out_ = Csr(std::move(offsets), std::move(neighbors));
  base_n_ = n_;
  out_blocks_.assign(n_, {});
  delta_edges_ = 0;
}

Csr patch_rows(const Csr& prev, std::span<const ArcFlip> flips,
               std::span<const VertexId> perm, bool by_dst,
               std::span<const EdgeId> degrees) {
  const VertexId n = prev.num_vertices();
  const auto prev_off = prev.offsets();
  const auto prev_val = prev.neighbor_array();
  VEBO_CHECK(!prev_off.empty() && perm.size() == n && degrees.size() == n,
             "patch_rows: permutation or degree count != row count");

  // Each flip as (row << 32 | value) in perm's id space, plus the row's
  // original id for the degree check; one sort groups every row's flips
  // in ascending value order.
  struct RowFlip {
    std::uint64_t key;
    VertexId orig_row;
    std::int8_t sign;
  };
  std::vector<RowFlip> net;
  net.reserve(flips.size());
  for (const ArcFlip& f : flips) {
    VEBO_CHECK(f.arc.src < n && f.arc.dst < n,
               "patch_rows: arc endpoint out of range");
    // Between compactions an arc's liveness flips alternate, so its net
    // flip is -1, 0 or +1; the zeros are not listed.
    VEBO_CHECK(f.sign == 1 || f.sign == -1,
               "patch_rows: net flip per arc not -1 or +1");
    const VertexId row = by_dst ? f.arc.dst : f.arc.src;
    const VertexId value = by_dst ? f.arc.src : f.arc.dst;
    VEBO_CHECK(perm[row] < n && perm[value] < n,
               "patch_rows: permutation value out of range");
    net.push_back(
        {(static_cast<std::uint64_t>(perm[row]) << 32) | perm[value], row,
         f.sign});
  }
  std::sort(net.begin(), net.end(),
            [](const RowFlip& a, const RowFlip& b) { return a.key < b.key; });
  VEBO_CHECK(std::adjacent_find(net.begin(), net.end(),
                                [](const RowFlip& a, const RowFlip& b) {
                                  return a.key == b.key;
                                }) == net.end(),
             "patch_rows: an arc listed twice (flips not netted)");

  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<VertexId> values;
  values.reserve(prev.num_edges() + net.size());
  std::int64_t shift = 0;  // net size change of the rows already written
  VertexId next = 0;       // first row not yet written
  for (std::size_t i = 0;;) {
    const VertexId row =
        i < net.size() ? static_cast<VertexId>(net[i].key >> 32) : n;
    // Rows [next, row) are unchanged: shift their offsets and copy their
    // values in one block.
    for (VertexId r = next; r <= row; ++r)
      offsets[r] = static_cast<EdgeId>(
          static_cast<std::int64_t>(prev_off[r]) + shift);
    values.insert(values.end(), prev_val.begin() + prev_off[next],
                  prev_val.begin() + prev_off[row]);
    if (row == n) break;

    // Row `row` changed: its previous values merged with its net flips.
    std::size_t j = i;
    std::int64_t delta = 0;
    for (; j < net.size() && (net[j].key >> 32) == row; ++j)
      delta += net[j].sign;
    const std::span<const VertexId> old = prev.neighbors(row);
    const EdgeId degree = degrees[net[i].orig_row];
    VEBO_CHECK(static_cast<std::int64_t>(old.size()) + delta ==
                   static_cast<std::int64_t>(degree),
               "patch_rows: row size != live degree");
    const EdgeId end = offsets[row] + degree;
    std::size_t s = 0;  // next unread value of `old`
    auto copy_to = [&](std::size_t stop) {
      VEBO_CHECK(values.size() + (stop - s) <= end, "patch_rows: row overflow");
      values.insert(values.end(), old.begin() + s, old.begin() + stop);
      s = stop;
    };
    for (; i < j; ++i) {
      const auto w = static_cast<VertexId>(net[i].key);
      copy_to(static_cast<std::size_t>(
          std::lower_bound(old.begin() + s, old.end(), w) - old.begin()));
      if (net[i].sign < 0) {
        VEBO_CHECK(s < old.size() && old[s] == w,
                   "patch_rows: removed value absent from its row");
        ++s;
      } else {
        VEBO_CHECK(values.size() < end, "patch_rows: row overflow");
        values.push_back(w);
      }
    }
    copy_to(old.size());
    VEBO_CHECK(values.size() == end, "patch_rows: row size mismatch");
    shift += delta;
    next = row + 1;
  }
  return Csr(std::move(offsets), std::move(values));
}

}  // namespace vebo::stream
