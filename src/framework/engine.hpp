// Engine: the execution context binding a graph to one of the paper's
// three system models.
//
//  * SystemModel::Ligra      — no explicit partitioning; vertex loops use
//    dynamic (Cilk-like) scheduling; no locality optimization.
//  * SystemModel::Polymer    — Algorithm-1 partitioning with one partition
//    per simulated NUMA node (default 4); static scheduling, so a loop's
//    completion time is the slowest partition's time.
//  * SystemModel::GraphGrind — heavy over-partitioning (default 384,
//    the paper's recommendation); static outer scheduling over partitions
//    and guided vertex loops. Its COO edge orders live where the paper
//    measures them, Table VI's build cost and Figure 6's sweep
//    (framework/coo_iter.hpp); the engine gathers through the CSC like
//    the other two models.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

#include "framework/cancel.hpp"
#include "graph/graph.hpp"
#include "order/partition.hpp"
#include "parallel/parallel_for.hpp"
#include "support/bitset.hpp"

namespace vebo {

enum class SystemModel { Ligra, Polymer, GraphGrind };

std::string to_string(SystemModel m);

struct EngineOptions {
  /// Number of partitions; 0 = model default (Ligra: none, Polymer: 4,
  /// GraphGrind: 384).
  VertexId partitions = 0;
  /// Explicit destination partitioning (e.g. VEBO's own boundaries).
  /// When set it overrides `partitions`; otherwise Algorithm 1 derives
  /// the chunks. Copied into the engine.
  const order::Partitioning* explicit_partitioning = nullptr;
  /// Frontier density denominator: dense traversal when
  /// |active| + |active out-edges| > m / dense_denominator (Ligra's 20).
  EdgeId dense_denominator = 20;
  /// Thread pool override (nullptr = global pool).
  ThreadPool* pool = nullptr;
};

// Thread-safety: the read-only surface (graph(), partitioning(),
// vertex_loop(), thresholds, dense_chunks()) is safe to call from
// multiple threads on one engine: rebind() builds all of it, and nothing
// else writes it. edge_map scratch stays single-caller (ScratchLease
// throws on a second concurrent borrower) — concurrent queries need one
// engine each, which is what serve::EnginePool provides. rebind()
// requires quiescence: no concurrent call of any kind.
class Engine {
 public:
  Engine(const Graph& g, SystemModel model, EngineOptions opts = {});

  const Graph& graph() const { return *graph_; }
  /// The pool this engine's loops run on: the options' override, else
  /// the global pool.
  ThreadPool& pool() const {
    return opts_.pool ? *opts_.pool : ThreadPool::global();
  }

  /// Rebinds the engine to a new version of the graph (a streaming
  /// snapshot) without discarding the reusable edge_map scratch (the claim
  /// bitset self-heals on vertex-count changes and the slot buffer is
  /// grow-only, so the PR-1 frontier invariants carry over). Pass the
  /// partitioning maintained for the new version — or nullptr to re-derive
  /// the engine's default partitioning for the model. An unpartitioned
  /// engine also gets its dense_chunks() here.
  void rebind(const Graph& g, const order::Partitioning* part = nullptr);

  bool partitioned() const { return partitions_ > 0; }
  VertexId num_partitions() const { return partitions_; }
  const order::Partitioning& partitioning() const { return part_; }

  /// Scheduling for loops over vertices/destinations, per system model.
  ForOptions vertex_loop() const;
  /// Scheduling for loops over partitions (static in Polymer/GraphGrind).
  ForOptions partition_loop() const;

  /// Destination-range boundaries for edge-balanced dense (pull)
  /// scheduling on the unpartitioned Ligra model: chunk t owns
  /// destinations [b[t], b[t+1]) carrying an approximately equal share of
  /// in-edges (destination count included in the measure so edgeless id
  /// stretches still split). Built by rebind() with a binary search into
  /// the CSC offset array, 8 chunks per pool thread; empty on partitioned
  /// engines, whose dense ranges are their partitions.
  std::span<const VertexId> dense_chunks() const { return dense_chunks_; }
  /// Scheduling for loops over dense_chunks() (dynamic, chunk-per-task).
  ForOptions dense_chunk_loop() const;

  /// Frontier size threshold above which edgemap switches to the dense
  /// (pull) traversal.
  EdgeId dense_threshold() const {
    return graph_->num_edges() / opts_.dense_denominator;
  }

  /// Output-size threshold above which a sparse push step returns its
  /// result in the dense (bitset) representation.
  VertexId dense_vertex_threshold() const {
    return static_cast<VertexId>(graph_->num_vertices() /
                                 opts_.dense_denominator);
  }

  /// Nothing left to warm: rebind() builds every structure a query reads.
  /// Kept because the end-to-end benchmark times it per model.
  void prewarm() const {}

  /// Reusable claim bitset for the sparse push path. edge_map borrows it
  /// and returns it all-zero (clearing only the bits it set), so steady-
  /// state sparse steps do no n-dependent allocation or clearing. Like
  /// the rest of the engine, not safe for concurrent edge_map calls.
  AtomicBitset& claim_scratch() const { return claim_scratch_; }

  /// Grow-only uninitialized slot buffer for the sparse push path (sized
  /// to the frontier's out-degree total), reused across edge_map calls
  /// to avoid a large transient allocation per step.
  VertexId* slot_scratch(std::size_t need) const {
    if (need > slot_capacity_) {
      slot_scratch_.reset(new VertexId[need]);
      slot_capacity_ = need;
    }
    return slot_scratch_.get();
  }

  /// Cooperative cancellation (framework/cancel.hpp): the caller that
  /// owns the running query binds its QueryContext with a ContextBinding
  /// for the duration of the run, and edge_map / edge_fold poll it here
  /// at entry (between supersteps, never inside the dense kernels). The
  /// poll throws CancelledError / DeadlineExceededError when the bound
  /// context says stop; one pointer test when nothing is bound. Same
  /// single-caller discipline as the edge_map scratch: bind/poll happen
  /// on the query's thread, only the flag inside the token is cross-
  /// thread (atomic). rebind() clears the binding.
  void poll_cancellation() const {
    if (qctx_ != nullptr) qctx_->checkpoint();
  }

  /// RAII binder for the query context above (exception-safe unbind).
  class ContextBinding {
   public:
    ContextBinding(const Engine& eng, const QueryContext& ctx) : eng_(&eng) {
      eng_->qctx_ = &ctx;
    }
    ~ContextBinding() { eng_->qctx_ = nullptr; }
    ContextBinding(const ContextBinding&) = delete;
    ContextBinding& operator=(const ContextBinding&) = delete;

   private:
    const Engine* eng_;
  };

  /// RAII borrow token enforcing the single-caller rule on the shared
  /// scratch above: a second concurrent (or reentrant) borrower throws
  /// instead of silently corrupting frontiers.
  class ScratchLease {
   public:
    explicit ScratchLease(const Engine& eng);
    ~ScratchLease() { busy_->store(false, std::memory_order_release); }
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;

   private:
    std::atomic<bool>* busy_;
  };

 private:
  const Graph* graph_;
  SystemModel model_;
  EngineOptions opts_;
  VertexId partitions_ = 0;
  order::Partitioning part_;
  std::vector<VertexId> dense_chunks_;  // see dense_chunks()
  mutable AtomicBitset claim_scratch_;  // lazy, see claim_scratch()
  mutable std::unique_ptr<VertexId[]> slot_scratch_;  // see slot_scratch()
  mutable std::size_t slot_capacity_ = 0;
  mutable std::atomic<bool> scratch_busy_{false};  // see ScratchLease
  mutable const QueryContext* qctx_ = nullptr;  // see ContextBinding
};

}  // namespace vebo
