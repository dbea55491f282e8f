// The typed query protocol: parameterized algorithm requests and typed
// per-vertex results, shared by every invocation layer (registry,
// StreamSession, serve::GraphService).
//
// Each algorithm has exactly one entry point, its AlgorithmSpec (see
// registry.hpp): `spec(code).invoke(eng, params)` runs it, and
// `spec.checksum(payload)` folds the answer into its one scalar.
//
// A query is (algorithm code, QueryParams). Params are a small typed
// key/value set ("source", "iterations", "damping", ...) validated and
// default-filled against the algorithm's ParamSchema — unknown names,
// ill-typed values and Int values outside their range are rejected with
// vebo::Error before any work runs.
// The answer is a QueryPayload, exactly what the algorithm computed: a
// tagged variant of
//   * a per-vertex double vector (ranks, distances, dependencies),
//   * a per-vertex id vector (BFS levels, CC component labels),
//   * a top-k (vertex, score) list,
// always in the id space of the engine's graph. When that graph is a
// reordered snapshot, translate_to_original_ids() maps a payload back to
// the client-visible original ids (per-vertex vectors are reindexed; id
// *values* — component labels, top-k vertices — are mapped through the
// inverse permutation).
//
// canonical_query_key() renders (code, validated params) into a
// deterministic string — sorted param order, type-tagged values, hex
// floats — so caches key on query *semantics*, not param spelling.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "framework/cancel.hpp"
#include "graph/types.hpp"

namespace vebo {
class Engine;
}  // namespace vebo

namespace vebo::algo {

// ------------------------------------------------------------- parameters

enum class ParamType : std::uint8_t { Int, Float };

/// A parameter value as supplied by a client. Schema validation coerces
/// integers to doubles for Float params (widening only — a double is
/// never silently truncated into an Int param).
using ParamValue = std::variant<std::int64_t, double>;

/// One parameter an algorithm accepts, with its default. An Int param
/// also carries its valid range [min, max]: validate() rejects values
/// outside it, so runs narrow counts to int and sizes to size_t without
/// checking them again.
struct ParamSpec {
  std::string name;
  ParamType type = ParamType::Int;
  ParamValue default_value = std::int64_t{0};
  std::int64_t min = std::numeric_limits<std::int64_t>::min();
  std::int64_t max = std::numeric_limits<std::int64_t>::max();
};

/// The range of an iteration-count param: a run loops over it as an int.
inline constexpr std::int64_t kMaxIterations =
    std::numeric_limits<int>::max();

class QueryParams;

/// The full parameter surface of one algorithm. Immutable after
/// construction; validate() is const and safe to call concurrently.
class ParamSchema {
 public:
  ParamSchema() = default;
  ParamSchema(std::initializer_list<ParamSpec> specs) : specs_(specs) {}

  /// nullptr when the schema has no such parameter.
  const ParamSpec* find(std::string_view name) const;

  /// Checks `given` against the schema and returns the normalized set:
  /// every schema param present (defaults filled), every value carrying
  /// its schema type. Throws vebo::Error on unknown names, on values
  /// whose type does not match (ints widen to Float params; anything
  /// else is ill-typed) and on Int values outside their spec's range.
  QueryParams validate(const QueryParams& given) const;

 private:
  std::vector<ParamSpec> specs_;
};

/// A typed key/value parameter set. Entries are kept sorted by name so
/// canonical encodings are independent of insertion order.
class QueryParams {
 public:
  QueryParams() = default;

  QueryParams& set(std::string name, double v) {
    entries_[std::move(name)] = v;
    return *this;
  }
  template <typename T>
    requires std::is_integral_v<T>
  QueryParams& set(std::string name, T v) {
    entries_[std::move(name)] = static_cast<std::int64_t>(v);
    return *this;
  }

  bool has(std::string_view name) const {
    return entries_.find(name) != entries_.end();
  }
  /// Typed getters throw vebo::Error when the param is absent or holds
  /// the other type (get_float additionally accepts an int, widened).
  std::int64_t get_int(std::string_view name) const;
  double get_float(std::string_view name) const;
  /// get_int checked into [0, kInvalidVertex).
  VertexId get_vertex(std::string_view name) const;

  const std::map<std::string, ParamValue, std::less<>>& entries() const {
    return entries_;
  }
  std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, ParamValue, std::less<>> entries_;
};

/// Deterministic encoding of a validated query: `CODE?a=i3&b=f0x1.b33...`.
/// Two queries encode equal iff they run the same computation — param
/// order, default-filled vs explicit, and float spelling ("0.85" vs an
/// int widened to 1.0) cannot produce distinct keys for equal semantics.
/// Pass *validated* params; raw client params would key on spelling.
std::string canonical_query_key(std::string_view code,
                                const QueryParams& params);

// ---------------------------------------------------------------- payload

enum class PayloadKind : std::uint8_t {
  VertexDoubles = 0,  ///< value per vertex (ranks, distances, beliefs)
  VertexIds = 1,      ///< id-typed value per vertex (levels, labels)
  TopK = 2,           ///< ranked (vertex, score) list
};

struct VertexScore {
  VertexId vertex = 0;
  double score = 0;
  friend bool operator==(const VertexScore&, const VertexScore&) = default;
};

/// The typed result of one algorithm run. Vertex indices and id values
/// refer to the graph the engine ran on; see translate_to_original_ids().
/// A default payload is an empty per-vertex double vector.
class QueryPayload {
 public:
  static QueryPayload vertex_doubles(std::vector<double> v);
  /// `values_are_vertex_ids`: the vector's *values* name vertices (CC
  /// labels) rather than counts (BFS levels), so translation must map
  /// them through the inverse permutation too.
  static QueryPayload vertex_ids(std::vector<VertexId> v,
                                 bool values_are_vertex_ids = false);
  static QueryPayload top_k(std::vector<VertexScore> v);

  PayloadKind kind() const { return static_cast<PayloadKind>(data_.index()); }
  /// Accessors throw vebo::Error on a kind mismatch.
  const std::vector<double>& doubles() const;
  const std::vector<VertexId>& ids() const;
  const std::vector<VertexScore>& top() const;
  bool values_are_vertex_ids() const { return values_are_vertex_ids_; }

  /// Entries in the payload.
  std::size_t num_entries() const;

  friend bool operator==(const QueryPayload&, const QueryPayload&) = default;

 private:
  std::variant<std::vector<double>, std::vector<VertexId>,
               std::vector<VertexScore>>
      data_;
  bool values_are_vertex_ids_ = false;
};

/// Maps a payload computed on a reordered snapshot back to original
/// vertex ids; `perm` is the published original-id -> snapshot-position
/// permutation. Per-vertex vectors are reindexed (out[v] = in[perm[v]]),
/// id values and top-k vertices are mapped through the inverse; one
/// outside [0, perm.size()) throws (kInvalidVertex values pass through).
/// Per-vertex payload sizes must equal perm.size().
/// Under invert(perm) the same map runs the other way: a payload held
/// in original ids lands in the snapshot's id space. Publish-time
/// refresh warm-starts that way, carrying a cached original-id payload
/// into the NEW epoch's snapshot space before the hook runs on it.
QueryPayload translate_to_original_ids(const QueryPayload& p,
                                       std::span<const VertexId> perm);

// ------------------------------------------------------ incremental delta

/// The net edge changes between two published snapshots, as directed arcs
/// in the id space the consuming engine runs in (undirected graphs carry
/// both orientations, matching the symmetrized snapshot). Set semantics
/// across the whole window: an arc appears in at most one of the two
/// lists, and an insert-then-remove chain nets out to nothing.
/// Produced by stream::StreamSession::drain_delta() (original ids) and
/// translated to snapshot ids by the serving layer before a refresh hook
/// sees it.
struct EdgeDelta {
  std::vector<Edge> inserted;
  std::vector<Edge> removed;

  std::size_t size() const { return inserted.size() + removed.size(); }
  bool empty() const { return inserted.empty() && removed.empty(); }
};

/// Hook-internal sanity bound: refresh implementations fall back to a
/// full run() when the delta exceeds this fraction of the edge count —
/// past that point warm-start bookkeeping costs more than recomputing.
/// The serving layer applies its own (configurable, typically tighter)
/// threshold before invoking a hook at all.
inline constexpr double kRefreshRunFallbackFraction = 0.25;

/// True when `delta` is small enough relative to the engine's edge count
/// for an incremental refresh to be worthwhile.
bool refresh_worthwhile(const Engine& eng, const EdgeDelta& delta,
                        double max_fraction);

// ----------------------------------------------------------- entry point

/// An algorithm's only entry point: its param schema, its runner and the
/// deterministic fold of the runner's payload into one scalar. Each
/// algorithm header declares its spec factory and documents the params,
/// payload and checksum there.
struct AlgorithmSpec {
  std::string code;  ///< paper's code: BC, CC, PR, BFS, PRD, SPMV, BF, BP
  ParamSchema params;
  /// Runs on *validated* params (every schema key present and typed);
  /// callers go through invoke() or validate explicitly. "source" params
  /// are in the engine graph's id space — serving layers translate
  /// original ids before calling. A query's deadline / cancellation
  /// state reaches the run through the engine: the caller binds its
  /// QueryContext with Engine::ContextBinding (invoke() does), the
  /// framework entry points poll it between supersteps, and hand-rolled
  /// iteration loops call eng.poll_cancellation() once per iteration.
  /// With nothing bound the polls are no-ops.
  std::function<QueryPayload(const Engine&, const QueryParams&)> run;
  /// The algorithm's one scalar answer: a fold of run()'s payload in a
  /// fixed order (serial in-payload-order sums, block sums, reached
  /// counts).
  std::function<double(const QueryPayload&)> checksum;
  /// Incremental entry point: recomputes the answer for the engine's
  /// graph warm-started from `prev` — the previous epoch's payload
  /// already re-expressed in THIS engine's id space (see
  /// translate_to_original_ids) — plus the net edge delta between the
  /// two snapshots, also in this engine's id space. Implementations fall
  /// back to a full run() internally when the delta is too large
  /// (kRefreshRunFallbackFraction), the payload shape cannot seed a warm
  /// start (top-k, stale vertex count), or the previous answer is
  /// otherwise unusable — the hook returns the payload run() would
  /// return on the engine's current graph (bit for bit for CC, BFS and
  /// BF; at convergence scale for PR and PRD). Null when the algorithm
  /// has no incremental form (the serving layer then invalidates as
  /// before).
  /// Cancellation reaches it through the engine, as for run().
  std::function<QueryPayload(const Engine&, const QueryParams&,
                             const QueryPayload& prev, const EdgeDelta&)>
      refresh;
  /// True when refresh() reuses values that depend on snapshot ids
  /// themselves (Bellman-Ford's synthetic edge weights are a pure
  /// function of snapshot ids): the hook is only sound when the
  /// permutation did not change across the publish, and the serving
  /// layer must drop the entry instead of refreshing when it did.
  bool refresh_needs_stable_perm = false;

  /// Validate + run in one step (the non-serving convenience path).
  /// Binds `ctx` to the engine for the duration of the run so the
  /// framework poll points see it (defined in query.cpp — needs the full
  /// Engine type for the RAII binding).
  QueryPayload invoke(const Engine& eng, const QueryParams& raw = {},
                      const QueryContext& ctx = QueryContext::none()) const;
};

/// Shared helper for ranked payloads: the k highest-scoring vertices,
/// score-descending with vertex-id ascending tie-break (deterministic
/// under any thread count). k >= n degrades to a full ranking.
std::vector<VertexScore> top_k_of(std::span<const double> scores,
                                  std::size_t k);

/// Serial in-payload-order sum (doubles, ids or top-k scores) — the
/// checksum fold of BC and PRD.
double serial_sum(const QueryPayload& p);

/// Deterministic parallel block fold of a per-vertex double payload (see
/// deterministic_sum; thread-count independent) — the checksum fold of
/// PR, SPMV and BP. Non-VertexDoubles payloads fall back to serial_sum.
double block_sum(const QueryPayload& p);

}  // namespace vebo::algo
