// Name-indexed registry of the 8 evaluation algorithms, exposed through
// the typed query protocol (algorithms/query.hpp): each entry is an
// AlgorithmSpec with a ParamSchema, a run() returning a typed
// QueryPayload (distances, component labels, rank vectors, top-k lists),
// and the deterministic checksum fold of that payload. The spec is each
// algorithm's only entry point — the algorithm headers declare nothing
// else to run — so every caller goes through it: the serving layer,
// parameterized clients, tests and examples run
// `spec(code).invoke(eng, params)`, and checksum callers (the Table III
// benches sweeping "all algorithms x all graphs x all orderings") fold
// the payload with `s.checksum(s.invoke(eng, params))`.
//
// Thread-safety: the tables are immutable after their C++11 magic-static
// initialization, so every accessor below may be called concurrently with
// no locking — GraphService workers resolve algorithms by name on the
// query hot path.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "algorithms/query.hpp"

namespace vebo::algo {

/// All 8 algorithm specs in the paper's order.
const std::vector<AlgorithmSpec>& specs();

/// Hash-indexed spec lookup by code; returns nullptr on unknown code (no
/// throw on a miss — the form services use to reject bad query names
/// cheaply). Not noexcept: the first call builds the index and may
/// propagate bad_alloc like any other allocation.
const AlgorithmSpec* find_spec(std::string_view code);

/// Spec lookup by code; throws vebo::Error on unknown code.
const AlgorithmSpec& spec(const std::string& code);

}  // namespace vebo::algo
