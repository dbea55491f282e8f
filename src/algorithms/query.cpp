#include "algorithms/query.hpp"

#include <algorithm>
#include <cstdio>

#include "framework/engine.hpp"
#include "parallel/parallel_for.hpp"
#include "support/error.hpp"

namespace vebo::algo {

// ----------------------------------------------------------- AlgorithmSpec

QueryPayload AlgorithmSpec::invoke(const Engine& eng, const QueryParams& raw,
                                   const QueryContext& ctx) const {
  // Bind the context so the framework superstep poll points see it; the
  // RAII binding unbinds on every exit path (including a cancellation
  // throw from inside the run).
  Engine::ContextBinding bind(eng, ctx);
  return run(eng, params.validate(raw));
}

namespace {

const char* type_name(ParamType t) {
  return t == ParamType::Int ? "int" : "float";
}

const char* value_type_name(const ParamValue& v) {
  return std::holds_alternative<std::int64_t>(v) ? "int" : "float";
}

std::string encode_value(const ParamValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    // Built up with += (not "i" + to_string(...)): the operator+ form
    // trips GCC 12's -Wrestrict false positive (PR 105651) once inlined
    // into canonical_query_key.
    std::string enc = "i";
    enc += std::to_string(*i);
    return enc;
  }
  // Hex float: exact, locale-independent, and identical for every
  // spelling of the same double — the property the cache key needs.
  char buf[48];
  std::snprintf(buf, sizeof buf, "f%a", std::get<double>(v));
  return buf;
}

}  // namespace

// ------------------------------------------------------------ ParamSchema

const ParamSpec* ParamSchema::find(std::string_view name) const {
  for (const ParamSpec& s : specs_)
    if (s.name == name) return &s;
  return nullptr;
}

QueryParams ParamSchema::validate(const QueryParams& given) const {
  QueryParams out;
  for (const auto& [name, value] : given.entries()) {
    const ParamSpec* spec = find(name);
    if (spec == nullptr)
      throw Error("query: unknown parameter \"" + name + "\"");
    if (spec->type == ParamType::Int) {
      const auto* i = std::get_if<std::int64_t>(&value);
      if (i == nullptr)
        throw Error("query: parameter \"" + name + "\" must be " +
                    type_name(spec->type) + ", got " +
                    value_type_name(value));
      if (*i < spec->min || *i > spec->max)
        throw Error("query: parameter \"" + name + "\" = " +
                    std::to_string(*i) + " is outside [" +
                    std::to_string(spec->min) + ", " +
                    std::to_string(spec->max) + "]");
      out.set(name, *i);
    } else {
      // Widening int -> float is well-defined; accept it so clients can
      // write damping=1 without caring about literal spelling.
      if (const auto* i = std::get_if<std::int64_t>(&value))
        out.set(name, static_cast<double>(*i));
      else
        out.set(name, std::get<double>(value));
    }
  }
  for (const ParamSpec& s : specs_)
    if (!out.has(s.name)) {
      if (const auto* i = std::get_if<std::int64_t>(&s.default_value))
        out.set(s.name, *i);
      else
        out.set(s.name, std::get<double>(s.default_value));
    }
  return out;
}

// ------------------------------------------------------------ QueryParams

std::int64_t QueryParams::get_int(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw Error("query: missing parameter \"" + std::string(name) + "\"");
  const auto* i = std::get_if<std::int64_t>(&it->second);
  if (i == nullptr)
    throw Error("query: parameter \"" + std::string(name) +
                "\" holds a float, wanted int");
  return *i;
}

double QueryParams::get_float(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw Error("query: missing parameter \"" + std::string(name) + "\"");
  if (const auto* i = std::get_if<std::int64_t>(&it->second))
    return static_cast<double>(*i);
  return std::get<double>(it->second);
}

VertexId QueryParams::get_vertex(std::string_view name) const {
  const std::int64_t v = get_int(name);
  if (v < 0 || v >= static_cast<std::int64_t>(kInvalidVertex))
    throw Error("query: parameter \"" + std::string(name) +
                "\" is not a valid vertex id: " + std::to_string(v));
  return static_cast<VertexId>(v);
}

std::string canonical_query_key(std::string_view code,
                                const QueryParams& params) {
  std::string key(code);
  key += '?';
  bool first = true;
  // entries() is name-sorted, so insertion order cannot leak into the key.
  for (const auto& [name, value] : params.entries()) {
    if (!first) key += '&';
    first = false;
    key += name;
    key += '=';
    key += encode_value(value);
  }
  return key;
}

// ----------------------------------------------------------- QueryPayload

QueryPayload QueryPayload::vertex_doubles(std::vector<double> v) {
  QueryPayload p;
  p.data_ = std::move(v);
  return p;
}

QueryPayload QueryPayload::vertex_ids(std::vector<VertexId> v,
                                      bool values_are_vertex_ids) {
  QueryPayload p;
  p.data_ = std::move(v);
  p.values_are_vertex_ids_ = values_are_vertex_ids;
  return p;
}

QueryPayload QueryPayload::top_k(std::vector<VertexScore> v) {
  QueryPayload p;
  p.data_ = std::move(v);
  return p;
}

const std::vector<double>& QueryPayload::doubles() const {
  VEBO_CHECK(kind() == PayloadKind::VertexDoubles,
             "payload is not a per-vertex double vector");
  return std::get<std::vector<double>>(data_);
}

const std::vector<VertexId>& QueryPayload::ids() const {
  VEBO_CHECK(kind() == PayloadKind::VertexIds,
             "payload is not a per-vertex id vector");
  return std::get<std::vector<VertexId>>(data_);
}

const std::vector<VertexScore>& QueryPayload::top() const {
  VEBO_CHECK(kind() == PayloadKind::TopK, "payload is not a top-k list");
  return std::get<std::vector<VertexScore>>(data_);
}

std::size_t QueryPayload::num_entries() const {
  switch (kind()) {
    case PayloadKind::VertexDoubles:
      return std::get<std::vector<double>>(data_).size();
    case PayloadKind::VertexIds:
      return std::get<std::vector<VertexId>>(data_).size();
    case PayloadKind::TopK:
      return std::get<std::vector<VertexScore>>(data_).size();
  }
  return 0;
}

QueryPayload translate_to_original_ids(const QueryPayload& p,
                                       std::span<const VertexId> perm) {
  const auto n = static_cast<VertexId>(perm.size());
  switch (p.kind()) {
    case PayloadKind::VertexDoubles: {
      const std::vector<double>& in = p.doubles();
      VEBO_CHECK(in.size() == perm.size(),
                 "translate: payload/permutation size mismatch");
      std::vector<double> re(in.size());
      for (VertexId v = 0; v < n; ++v) re[v] = in[perm[v]];
      return QueryPayload::vertex_doubles(std::move(re));
    }
    case PayloadKind::VertexIds: {
      const std::vector<VertexId>& in = p.ids();
      VEBO_CHECK(in.size() == perm.size(),
                 "translate: payload/permutation size mismatch");
      std::vector<VertexId> re(in.size());
      if (p.values_are_vertex_ids()) {
        // Both the index and the value are snapshot positions (CC
        // labels): inv[pos] recovers the original id at that position.
        std::vector<VertexId> inv(perm.size());
        for (VertexId v = 0; v < n; ++v) inv[perm[v]] = v;
        for (VertexId v = 0; v < n; ++v) {
          const VertexId val = in[perm[v]];
          VEBO_CHECK(val == kInvalidVertex || val < n,
                     "translate: id value out of range");
          re[v] = val == kInvalidVertex ? kInvalidVertex : inv[val];
        }
      } else {
        for (VertexId v = 0; v < n; ++v) re[v] = in[perm[v]];
      }
      return QueryPayload::vertex_ids(std::move(re), p.values_are_vertex_ids());
    }
    case PayloadKind::TopK: {
      std::vector<VertexId> inv(perm.size());
      for (VertexId v = 0; v < n; ++v) inv[perm[v]] = v;
      std::vector<VertexScore> re = p.top();
      for (VertexScore& e : re) {
        VEBO_CHECK(e.vertex < n, "translate: top-k vertex out of range");
        e.vertex = inv[e.vertex];
      }
      return QueryPayload::top_k(std::move(re));
    }
  }
  return p;
}

bool refresh_worthwhile(const Engine& eng, const EdgeDelta& delta,
                        double max_fraction) {
  const auto m = static_cast<double>(
      std::max<EdgeId>(eng.graph().num_edges(), 1));
  return static_cast<double>(delta.size()) <= max_fraction * m;
}

double serial_sum(const QueryPayload& p) {
  double sum = 0.0;
  switch (p.kind()) {
    case PayloadKind::VertexDoubles:
      for (double v : p.doubles()) sum += v;
      return sum;
    case PayloadKind::VertexIds:
      for (VertexId v : p.ids()) sum += static_cast<double>(v);
      return sum;
    case PayloadKind::TopK:
      for (const VertexScore& e : p.top()) sum += e.score;
      return sum;
  }
  return sum;
}

double block_sum(const QueryPayload& p) {
  if (p.kind() != PayloadKind::VertexDoubles) return serial_sum(p);
  const std::vector<double>& v = p.doubles();
  return deterministic_sum<double>(0, v.size(),
                                   [&](std::size_t i) { return v[i]; });
}

std::vector<VertexScore> top_k_of(std::span<const double> scores,
                                  std::size_t k) {
  std::vector<VertexScore> all(scores.size());
  for (std::size_t v = 0; v < scores.size(); ++v)
    all[v] = {static_cast<VertexId>(v), scores[v]};
  k = std::min(k, all.size());
  const auto better = [](const VertexScore& a, const VertexScore& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.vertex < b.vertex;
  };
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(k), all.end(),
                    better);
  all.resize(k);
  return all;
}

}  // namespace vebo::algo
