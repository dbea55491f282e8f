// edgemap / vertexmap: the two traversal primitives of Ligra, Polymer and
// GraphGrind (Section IV of the paper).
//
// An edgemap functor F provides (Ligra's interface):
//   bool update(u, v)        — apply edge u->v; single writer per v (pull)
//   bool update_atomic(u, v) — apply edge u->v; concurrent writers (push)
//   bool cond(v)             — should destination v still be processed?
// Both update functions return true iff v became active for the next
// frontier.
//
// Direction reversal: sparse frontiers traverse out-edges of active
// vertices (push); frontiers denser than |E|/20 traverse in-edges of every
// destination satisfying cond (pull). Partitioned engines (Polymer,
// GraphGrind) run the pull phase partition-by-partition under static
// scheduling — the configuration whose load balance VEBO fixes.
//
// The dense (pull) path:
//  * Complete-frontier specialization — when the input subset provably
//    covers all n vertices (VertexSubset::is_complete()), the kernel is
//    instantiated with CompleteProbe and the per-edge frontier.get(u)
//    load disappears from the inner loop.
//  * Edge-balanced dense scheduling — partitioned engines keep their
//    VEBO/Algorithm-1 partition boundaries; the unpartitioned Ligra model
//    splits the destination range into chunks of ~equal in-edges by
//    binary search into the CSC offsets (Engine::dense_chunks()) instead
//    of vertex chunking, which would reintroduce on the dense path the
//    skew VEBO exists to fix.
//  * Non-atomic output stripes — pull has a single writer per destination
//    and tasks own disjoint destination ranges, so the output bitset is
//    written with plain stores on words wholly inside a task's range and
//    an atomic RMW only on the (at most two) boundary words shared with
//    neighbouring tasks (StripeSink).
// There are two dense kernels: edge_map instantiates edge_map_pull_range,
// and edge_fold — the gather the PageRank / PageRank-delta / SpMV / BP
// dense iterations run on — instantiates detail::edge_fold_ranges. Both
// schedule through for_dense_ranges.
//
// Frontier materialization is fully parallel and output-sensitive
// (pbbslib-style scan compaction):
//  * Sparse push: an exclusive scan over frontier out-degrees assigns each
//    source a slot range in an edge-indexed buffer; workers write the
//    destinations they activate (first claim wins via an atomic bitset)
//    compacted at the front of their own range and report the count; a
//    second scan over the counts places each range's activations in the
//    output. The claim bitset is engine-owned scratch, allocated once
//    and cleared incrementally by the output list, so steady-state cost
//    is O(edges(frontier)) — never O(n) — with no serial pass.
//    If the output count is past the density threshold the claim bitset
//    itself becomes the (dense) result and the copy-out is skipped.
//  * Dense pull: the striped output bitset is adopted by the result
//    subset word-for-word (no bit-at-a-time copy).
// The offset scan doubles as the input frontier's out-degree sum, seeding
// the cache VertexSubset::out_edges() keeps for the direction heuristic;
// result frontiers fill that cache lazily on their first heuristic query.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "framework/engine.hpp"
#include "framework/vertex_subset.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "support/bitset.hpp"

namespace vebo {

namespace detail {

/// How many disjoint destination ranges the dense scheduler will run —
/// the tracer's "chunks" arg (partition count on partitioned engines,
/// CSC edge-balanced chunk count otherwise).
inline std::uint64_t dense_range_count(const Engine& eng) {
  return eng.partitioned()
             ? static_cast<std::uint64_t>(eng.partitioning().num_partitions())
             : static_cast<std::uint64_t>(eng.dense_chunks().size() - 1);
}

}  // namespace detail

enum class Direction { Auto, Push, Pull };

struct EdgeMapOptions {
  Direction direction = Direction::Auto;
  /// Pull loop breaks out of a destination's in-edge scan as soon as
  /// cond(v) turns false (Ligra's early exit, e.g. BFS parent setting).
  bool early_exit = true;
};

// ------------------------------------------------- dense kernel pieces

/// Frontier membership probes for the pull kernel. CompleteProbe is the
/// complete-frontier specialization: every source passes, with no memory
/// access in the inner loop.
struct CompleteProbe {
  bool operator()(VertexId) const { return true; }
};
struct BitsetProbe {
  const DynamicBitset& bits;
  bool operator()(VertexId u) const { return bits.get(u); }
};

/// The pull kernel's output sink: records activations with plain
/// (non-atomic) stores on every bitset word lying wholly inside the
/// task's destination range [lo, hi); only the at-most-two boundary words
/// shared with neighbouring tasks take an atomic RMW. Safe because pull
/// has a single writer per destination and tasks own disjoint ranges: a
/// word is either interior to exactly one task (only that task touches
/// it, plainly) or a boundary word for all its writers (all touch it
/// atomically).
struct StripeSink {
  DynamicBitset& bits;
  std::size_t word_lo, word_hi;  ///< plain stores for words in [lo, hi)

  StripeSink(DynamicBitset& b, VertexId lo, VertexId hi)
      : bits(b),
        word_lo((static_cast<std::size_t>(lo) + 63) / 64),
        word_hi(static_cast<std::size_t>(hi) / 64) {}

  void set(VertexId v) {
    const std::size_t w = static_cast<std::size_t>(v) >> 6;
    if (w >= word_lo && w < word_hi)
      bits.set(v);
    else
      bits.set_atomic(v);
  }
};

/// The update-style dense (pull) kernel: applies F over the in-edges of
/// every destination in [lo, hi) whose source passes `probe`, reporting
/// activations to `sink`. Every dense edge_map step instantiates this
/// template — the probe is a compile-time choice, so the complete-frontier
/// variant pays nothing for the flexibility.
template <typename F, typename Probe>
void edge_map_pull_range(const Graph& g, F& f, const Probe& probe,
                         StripeSink& sink, VertexId lo, VertexId hi,
                         bool early_exit) {
  for (VertexId v = lo; v < hi; ++v) {
    if (!f.cond(v)) continue;
    for (VertexId u : g.in_neighbors(v)) {
      if (!probe(u)) continue;
      if (f.update(u, v)) sink.set(v);
      if (early_exit && !f.cond(v)) break;
    }
  }
}

/// Runs body(lo, hi) over disjoint destination ranges covering [0, n):
/// partition-per-task on partitioned engines (Polymer/GraphGrind keep
/// their VEBO/Algorithm-1 boundaries), edge-balanced CSC chunks on the
/// unpartitioned Ligra model (Engine::dense_chunks()).
template <typename Body>
void for_dense_ranges(const Engine& eng, Body&& body) {
  if (eng.partitioned()) {
    const auto& part = eng.partitioning();
    parallel_for(
        0, part.num_partitions(),
        [&](std::size_t p) {
          body(part.begin(static_cast<VertexId>(p)),
               part.end(static_cast<VertexId>(p)));
        },
        eng.partition_loop());
  } else {
    const std::span<const VertexId> chunks = eng.dense_chunks();
    parallel_for(
        0, chunks.size() - 1,
        [&](std::size_t t) { body(chunks[t], chunks[t + 1]); },
        eng.dense_chunk_loop());
  }
}

namespace detail {

/// Dense driver shared by both probes: schedules the kernel over the
/// engine's dense ranges, each writing its own output stripe.
template <typename F, typename Probe>
VertexSubset edge_map_pull(const Engine& eng, F& f, const Probe& probe,
                           bool early_exit) {
  const Graph& g = eng.graph();
  DynamicBitset next(g.num_vertices());
  for_dense_ranges(eng, [&](VertexId lo, VertexId hi) {
    StripeSink sink(next, lo, hi);
    edge_map_pull_range(g, f, probe, sink, lo, hi, early_exit);
  });
  // Adopt the striped words directly; the count is word-parallel.
  return VertexSubset::from_bitset(std::move(next), eng.vertex_loop());
}

}  // namespace detail

/// Applies F over all edges whose source is in `frontier`; returns the
/// next frontier. The traversal direction follows the engine's density
/// heuristic unless forced via `opts.direction`.
template <typename F>
VertexSubset edge_map(const Engine& eng, VertexSubset& frontier, F f,
                      const EdgeMapOptions& opts = {}) {
  // Superstep boundary: the cooperative-cancellation poll point (one
  // pointer test when no context is bound; never polled inside the
  // dense kernels below).
  eng.poll_cancellation();
  const Graph& g = eng.graph();
  const VertexId n = g.num_vertices();
  const ForOptions vloop = eng.vertex_loop();
  if (frontier.empty_set()) return VertexSubset::empty(n);

  // Step span: one relaxed load when no trace is armed. Sits at call
  // granularity — the dense kernels below are never polled.
  obs::SpanScope step(obs::SpanKind::EdgeMap);

  // Per-source out-degree offsets for the push path. Filled at most once;
  // when the frontier is already sparse the Auto heuristic fills it and
  // its scan total doubles as the out-degree sum (one degree walk, not
  // two).
  std::vector<std::uint64_t> off;
  std::uint64_t total = 0;
  bool have_offsets = false;
  auto compute_offsets = [&] {
    auto ids = frontier.vertices();
    off.resize(ids.size());
    parallel_for(
        0, ids.size(),
        [&](std::size_t i) { off[i] = g.out_degree(ids[i]); }, vloop);
    total = exclusive_scan(off.data(), off.data(), ids.size(), vloop);
    frontier.set_out_edges(total);
    have_offsets = true;
  };

  bool pull;
  switch (opts.direction) {
    case Direction::Push: pull = false; break;
    case Direction::Pull: pull = true; break;
    case Direction::Auto:
      // A complete frontier is always dense (n + m > m/20); skip the
      // degree walk the heuristic would otherwise pay.
      if (frontier.is_complete()) {
        pull = true;
        break;
      }
      // |frontier| + |out-edges(frontier)| > m/20 -> dense.
      if (!frontier.is_dense()) compute_offsets();
      pull = frontier.size() + frontier.out_edges(g, vloop) >
             eng.dense_threshold();
      break;
    default: pull = false; break;
  }

  if (step.live()) {
    // Record the heuristic's inputs exactly as it saw them: the out-edge
    // sum only when it was actually computed (offset scan, cached value,
    // or the complete-frontier shortcut's |E|) — tracing never forces
    // the degree walk the step itself skipped.
    obs::Span& s = step.span();
    s.a = frontier.size();
    s.b = have_offsets                ? total
          : frontier.is_complete()    ? g.num_edges()
          : frontier.has_out_edges()  ? frontier.out_edges(g, vloop)
                                      : obs::kUnknownArg;
    s.c = eng.dense_threshold();
    s.direction = pull ? 2 : 1;
    s.flags = static_cast<std::uint8_t>(
        (opts.early_exit ? 1 : 0) |
        (opts.direction != Direction::Auto ? 4 : 0));
    if (pull) {
      s.rep = frontier.is_complete() ? 3 : 2;
      s.variant = frontier.is_complete() ? obs::KernelVariant::Complete
                                         : obs::KernelVariant::Probe;
      s.d = detail::dense_range_count(eng);
    } else {
      s.rep = 1;
      s.d = 0;
    }
  }

  if (pull) {
    if (frontier.is_complete())
      return detail::edge_map_pull(eng, f, CompleteProbe{}, opts.early_exit);
    frontier.to_dense(vloop);
    return detail::edge_map_pull(eng, f, BitsetProbe{frontier.bits()},
                                 opts.early_exit);
  }

  frontier.to_sparse(vloop);
  auto ids = frontier.vertices();
  const std::size_t fsz = ids.size();

  // Sparse push, scan-compacted: slot ranges from the offset scan, then
  // a count scan places each range's activations in the output. No loop
  // below runs over all n vertices and no pass is serial (the slot
  // buffer is deliberately left uninitialized; only written prefixes of
  // each range are read back).
  if (!have_offsets) compute_offsets();
  std::vector<std::uint64_t> cnt(fsz);

  // Engine-owned scratch, reused across calls: the slot buffer grows to
  // the largest out-degree total seen, and the claim bitset arrives
  // all-zero (first borrow allocates) and is handed back all-zero below,
  // so steady-state sparse steps do no n-dependent work. The lease
  // throws if another edge_map already holds the scratch.
  Engine::ScratchLease lease(eng);
  VertexId* const slots = eng.slot_scratch(total);
  AtomicBitset& claimed = eng.claim_scratch();
  if (claimed.size() != static_cast<std::size_t>(n))
    claimed = AtomicBitset(n);
  parallel_for(
      0, fsz,
      [&](std::size_t i) {
        const VertexId u = ids[i];
        VertexId* slot = slots + off[i];
        std::uint64_t c = 0;
        for (const VertexId v : g.out_neighbors(u))
          if (f.cond(v) && f.update_atomic(u, v) && claimed.set(v))
            slot[c++] = v;
        cnt[i] = c;
      },
      vloop);

  std::vector<std::uint64_t> out_off(fsz);
  const std::uint64_t out_total =
      exclusive_scan(cnt.data(), out_off.data(), fsz, vloop);

  if (out_total > eng.dense_vertex_threshold()) {
    // Dense fallback: the claim bitset is exactly the output set, so
    // adopt it and skip materializing the id list entirely. Moving the
    // words out leaves the scratch empty; the next sparse step
    // reallocates it (rare — dense rounds come in runs). The out-degree
    // sum is filled lazily by the next heuristic query.
    return VertexSubset::from_atomic(std::move(claimed),
                                     static_cast<VertexId>(out_total), vloop);
  }
  std::vector<VertexId> out(out_total);
  parallel_for(
      0, fsz,
      [&](std::size_t i) {
        std::copy_n(slots + off[i], cnt[i], out.data() + out_off[i]);
      },
      vloop);
  // Return the scratch all-zero by clearing exactly the bits this step
  // set — O(|out|), not O(n).
  parallel_for(
      0, out.size(), [&](std::size_t i) { claimed.clear(out[i]); }, vloop);
  return VertexSubset::from_packed(n, std::move(out), /*sorted=*/false);
}

// ------------------------------------------------------------- edge_fold

namespace detail {

/// Fold kernel shared by both edge_fold overloads: per destination, a
/// register accumulator folded over the in-neighbors that pass `probe`,
/// committed once. Same probe concept and dense scheduling as the
/// update-style kernel.
template <typename T, typename Probe, typename Value, typename Commit>
void edge_fold_ranges(const Engine& eng, const Probe& probe, Value& value,
                      Commit& commit) {
  const Graph& g = eng.graph();
  for_dense_ranges(eng, [&](VertexId lo, VertexId hi) {
    for (VertexId v = lo; v < hi; ++v) {
      T acc{};
      for (VertexId u : g.in_neighbors(v))
        if (probe(u)) acc += value(u, v);
      commit(v, acc);
    }
  });
}

/// Fills an EdgeFold span's args; shared by both overloads. `fsize` is
/// the contributing-source count (n for the probe-free kernel).
inline void fill_fold_span(obs::SpanScope& step, const Engine& eng,
                           std::uint64_t fsize, std::uint64_t fedges,
                           bool complete) {
  if (!step.live()) return;
  obs::Span& s = step.span();
  s.a = fsize;
  s.b = fedges;
  s.c = eng.dense_threshold();
  s.d = dense_range_count(eng);
  s.direction = 2;
  s.rep = complete ? 3 : 2;
  s.variant = obs::KernelVariant::Fold;
}

}  // namespace detail

/// Register-accumulating per-destination gather (pull direction): for
/// every destination v, folds value(u, v) over v's in-neighbors into a
/// local accumulator and calls commit(v, acc) exactly once — including
/// acc == T{} for in-degree-0 destinations, so no separate zero-fill
/// pass is needed. The accumulator provably lives in a register across a
/// destination's whole in-edge scan, which a per-edge functor cannot
/// promise (the destination array and the source array may alias,
/// forcing a load + store per edge). PageRank / SpMV / BP-style dense
/// iterations run on this form; accumulation order is the ascending
/// in-neighbor order, independent of thread count, chunking and system
/// model.
template <typename T, typename Value, typename Commit>
void edge_fold(const Engine& eng, Value&& value, Commit&& commit) {
  eng.poll_cancellation();  // superstep boundary (see edge_map)
  obs::SpanScope step(obs::SpanKind::EdgeFold);
  detail::fill_fold_span(step, eng, eng.graph().num_vertices(),
                         eng.graph().num_edges(), /*complete=*/true);
  detail::edge_fold_ranges<T>(eng, CompleteProbe{}, value, commit);
}

/// Frontier-restricted overload: only in-neighbors in `frontier`
/// contribute; commit still runs for every destination. A complete
/// frontier dispatches to the probe-free kernel.
template <typename T, typename Value, typename Commit>
void edge_fold(const Engine& eng, VertexSubset& frontier, Value&& value,
               Commit&& commit) {
  eng.poll_cancellation();  // superstep boundary (see edge_map)
  obs::SpanScope step(obs::SpanKind::EdgeFold);
  if (frontier.is_complete()) {
    detail::fill_fold_span(step, eng, eng.graph().num_vertices(),
                           eng.graph().num_edges(), /*complete=*/true);
    detail::edge_fold_ranges<T>(eng, CompleteProbe{}, value, commit);
    return;
  }
  detail::fill_fold_span(
      step, eng, frontier.size(),
      frontier.has_out_edges()
          ? frontier.out_edges(eng.graph(), eng.vertex_loop())
          : obs::kUnknownArg,
      /*complete=*/false);
  frontier.to_dense(eng.vertex_loop());
  detail::edge_fold_ranges<T>(eng, BitsetProbe{frontier.bits()}, value,
                              commit);
}

// ------------------------------------------------------------ vertex_map

/// Applies fn(v) to every member of the subset (parallel; fn must be safe
/// to run concurrently on distinct vertices).
template <typename Fn>
void vertex_map(const Engine& eng, const VertexSubset& subset, Fn&& fn) {
  if (subset.has_sparse()) {
    auto ids = subset.vertices();
    parallel_for(
        0, ids.size(), [&](std::size_t i) { fn(ids[i]); },
        eng.vertex_loop());
  } else {
    // Word-parallel dense walk: zero words cost one test, not 64.
    const DynamicBitset& bits = subset.bits();
    parallel_for(
        0, bits.num_words(),
        [&](std::size_t w) {
          detail::for_each_set_bit(bits.word(w), w * 64, [&](std::size_t i) {
            fn(static_cast<VertexId>(i));
          });
        },
        eng.vertex_loop());
  }
}

}  // namespace vebo
