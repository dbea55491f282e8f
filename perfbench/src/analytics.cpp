// analytics-twitter: the paper's Table III at real parallelism. One
// closed-loop client runs all 8 algorithms x 3 system models through
// AlgorithmSpec::invoke on the twitter stand-in, VEBO-ordered per model
// (Polymer P=4; GraphGrind P=384; Ligra on the P=384 order). BC is
// skipped on Polymer, as in the paper. Every source is the same original
// vertex in every model.
#include <algorithm>
#include <array>
#include <cstdio>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/reference.hpp"
#include "algorithms/registry.hpp"
#include "bench.hpp"
#include "framework/engine.hpp"
#include "gen/datasets.hpp"
#include "graph/permute.hpp"
#include "metrics/balance.hpp"
#include "order/vebo.hpp"
#include "parallel/thread_pool.hpp"
#include "support/prng.hpp"

namespace perfbench {
namespace {

using namespace vebo;

constexpr int kModels = 3;
constexpr std::array<SystemModel, kModels> kModel = {
    SystemModel::Ligra, SystemModel::Polymer, SystemModel::GraphGrind};
constexpr std::array<const char*, kModels> kModelKey = {"ligra", "polymer",
                                                        "graphgrind"};
constexpr int kPolymer = 1;
/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Threads of the engines' own pool (the paper's P=4 sockets).
constexpr std::size_t kThreads = 4;

/// One setup's output. Engines point into the graphs, so the struct
/// lives behind a unique_ptr and never moves.
struct Installed {
  order::VeboResult v4, v384;
  Graph g4, g384;
  std::array<std::unique_ptr<Engine>, kModels> engines;

  const Graph& graph(int m) const { return m == kPolymer ? g4 : g384; }
  const order::VeboResult& order(int m) const {
    return m == kPolymer ? v4 : v384;
  }
  Installed() = default;
  Installed(const Installed&) = delete;
  Installed& operator=(const Installed&) = delete;
};

EngineOptions engine_options(const Installed& in, int m, ThreadPool* pool) {
  EngineOptions o;
  // Ligra runs unpartitioned on the P=384 order.
  if (kModel[m] != SystemModel::Ligra)
    o.explicit_partitioning = &in.order(m).partitioning;
  o.pool = pool;
  return o;
}

/// Set-up timings, one entry per setup (per call for vebo/permute).
struct SetupTimes {
  std::vector<double> setup_s, build_ms, vebo_ms, permute_ms;
  std::array<std::vector<double>, kModels> prewarm_ms;
};

/// Edge list in memory -> graph, both VEBO orders, three prewarmed
/// engines: everything before the first query can run.
std::unique_ptr<Installed> install(EdgeList el, SpanLog& log,
                                   std::uint64_t round, ThreadPool& pool,
                                   SetupTimes& t) {
  auto in = std::make_unique<Installed>();
  Scope setup(log, "setup", 0, round);
  Graph g;
  {
    Scope s(log, "graph.from_edges", setup.id(), round);
    g = Graph::from_edges(std::move(el));
    t.build_ms.push_back(s.stop());
  }
  const auto order_for = [&](VertexId P, order::VeboResult& vr, Graph& out) {
    {
      Scope s(log, "order.vebo", setup.id(), P);
      vr = order::vebo(g, P);
      t.vebo_ms.push_back(s.stop());
    }
    Scope s(log, "graph.permute", setup.id(), P);
    out = permute(g, vr.perm);
    t.permute_ms.push_back(s.stop());
  };
  // Ligra reuses GraphGrind's P=384 order.
  order_for(4, in->v4, in->g4);
  order_for(384, in->v384, in->g384);
  g = Graph();  // the original labelling is not queried
  for (int m = 0; m < kModels; ++m) {
    {
      Scope s(log, "framework.engine", setup.id(), m);
      in->engines[m] = std::make_unique<Engine>(
          in->graph(m), kModel[m], engine_options(*in, m, &pool));
    }
    Scope s(log, "framework.prewarm", setup.id(), m);
    in->engines[m]->prewarm();
    t.prewarm_ms[m].push_back(s.stop());
  }
  t.setup_s.push_back(setup.stop() * 1e-3);
  return in;
}

/// One (model, algorithm) cell of Table III.
struct Pair {
  int model = 0;
  const algo::AlgorithmSpec* spec = nullptr;
  algo::QueryParams params;
  std::string name;  ///< "<CODE>.<model>"
};

std::vector<Pair> make_pairs(const Installed& in, VertexId source) {
  std::vector<Pair> pairs;
  for (int m = 0; m < kModels; ++m)
    for (const auto& spec : algo::specs()) {
      if (spec.code == "BC" && kModel[m] == SystemModel::Polymer) continue;
      Pair p;
      p.model = m;
      p.spec = &spec;
      if (spec.params.find("source") != nullptr)
        p.params.set("source", in.order(m).perm[source]);
      p.name = spec.code + "." + kModelKey[m];
      pairs.push_back(std::move(p));
    }
  return pairs;
}

/// Client-side record of the sweeps run under one tracing mode.
struct Sweep {
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> pair_ms;
  std::vector<std::uint64_t> pair_runs, pair_failed;
  double wall_s = 0;
};

/// One sweep over every pair; each answer's checksum must match the
/// verified one.
void sweep_once(const std::vector<Pair>& pairs,
                const std::array<std::unique_ptr<Engine>, kModels>& engines,
                const std::vector<double>& expect, SpanLog& log, RunResult& r,
                Sweep& sw) {
  if (sw.pair_ms.empty()) {
    sw.pair_ms.resize(pairs.size());
    sw.pair_runs.assign(pairs.size(), 0);
    sw.pair_failed.assign(pairs.size(), 0);
  }
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Pair& p = pairs[i];
    algo::QueryPayload out;
    bool ok = true;
    Scope q(log, "query", 0, sw.latency_ms.size());
    try {
      Scope call(log, "algorithms.invoke", q.id(), i);
      out = p.spec->invoke(*engines[p.model], p.params);
    } catch (const std::exception& e) {
      ok = false;
      r.fail_check(p.name + " threw: " + e.what());
    }
    const double ms = q.stop();
    sw.latency_ms.push_back(ms);
    sw.pair_ms[i].push_back(ms);
    ++sw.pair_runs[i];
    if (ok && !close(p.spec->checksum(out), expect[i], 1e-9, 0)) {
      ok = false;
      r.fail_check(p.name + ": checksum differs from the verified run");
    }
    if (!ok) ++sw.pair_failed[i];
  }
  sw.wall_s += static_cast<double>(now_ns() - t0) * 1e-9;
}

// ----------------------------------------------------------------- checks

bool same_doubles(const std::vector<double>& got,
                  const std::vector<double>& want, double rel,
                  double abs_floor) {
  if (got.size() != want.size()) return false;
  for (std::size_t v = 0; v < got.size(); ++v)
    if (!close(got[v], want[v], rel, abs_floor)) return false;
  return true;
}

/// Checks each pair's verification payload: against the serial oracles
/// in algorithms/reference.hpp where one exists; PRD and BP against
/// another system model on the same ordered graph. Returns per-pair
/// verdicts.
std::vector<bool> check_payloads(const Installed& in,
                                 const std::vector<Pair>& pairs,
                                 const std::vector<algo::QueryPayload>& got,
                                 VertexId source, RunResult& r) {
  std::vector<bool> ok(pairs.size(), true);
  // Oracles per ordered graph (edge weights depend on vertex ids, so
  // each order gets its own).
  struct Oracle {
    std::vector<VertexId> bfs, wcc;
    std::vector<double> pr, dij, spmv, bc;
  };
  std::array<Oracle, 2> oracle;  // [0] = P=384 order, [1] = P=4 order
  for (int k = 0; k < 2; ++k) {
    const int m = k == 0 ? 2 : kPolymer;
    const Graph& g = in.graph(m);
    const VertexId s = in.order(m).perm[source];
    Oracle& o = oracle[k];
    o.bfs = algo::ref::bfs_levels(g, s);
    o.wcc = algo::ref::wcc_labels(g);
    o.pr = algo::ref::pagerank(g, 10);
    o.dij = algo::ref::dijkstra(g, s);
    o.spmv = algo::ref::spmv(
        g, std::vector<double>(g.num_vertices(),
                               1.0 / static_cast<double>(g.num_vertices())));
    if (k == 0) o.bc = algo::ref::brandes_dependency(g, s);
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Pair& p = pairs[i];
    const Oracle& o = oracle[p.model == kPolymer ? 1 : 0];
    const algo::QueryPayload& out = got[i];
    const std::string& code = p.spec->code;
    bool good = true;
    if (code == "BFS") {
      good = out.ids() == o.bfs;
    } else if (code == "CC") {
      good = out.ids() == o.wcc;
    } else if (code == "PR") {
      good = same_doubles(out.doubles(), o.pr, 1e-9, 1e-15);
    } else if (code == "BF") {
      good = same_doubles(out.doubles(), o.dij, 1e-9, 1e-12);
    } else if (code == "SPMV") {
      good = same_doubles(out.doubles(), o.spmv, 1e-9, 1e-15);
    } else if (code == "BC") {
      good = same_doubles(out.doubles(), o.bc, 1e-6, 1e-9);
    } else {
      // PRD, BP: no oracle; another model on the same ordered graph
      // (BP's priors depend on vertex ids) must agree.
      const SystemModel other = kModel[p.model] == SystemModel::Ligra
                                    ? SystemModel::GraphGrind
                                    : SystemModel::Ligra;
      EngineOptions eo;
      if (other != SystemModel::Ligra)
        eo.explicit_partitioning = &in.order(p.model).partitioning;
      const Engine eng(in.graph(p.model), other, eo);
      good = same_doubles(out.doubles(),
                          p.spec->invoke(eng, p.params).doubles(), 1e-9,
                          1e-15);
    }
    if (!good) {
      ok[i] = false;
      r.fail_check(p.name + ": answer differs from " +
                   (code == "PRD" || code == "BP" ? "another model"
                                                  : "the serial oracle"));
    }
  }
  return ok;
}

/// A source every model traverses from: seeded, among vertices with
/// out-degree at least the graph's average.
VertexId pick_source(const Graph& g, std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  const EdgeId avg = g.num_edges() / std::max<VertexId>(g.num_vertices(), 1);
  for (;;) {
    const auto v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    if (g.out_degree(v) >= std::max<EdgeId>(avg, 1)) return v;
  }
}

}  // namespace

RunResult run_analytics(const RunOptions& opt, SpanLog& log) {
  RunResult r;
  // Inputs (outside every timer): the twitter stand-in and a source.
  const std::uint64_t t_in = now_ns();
  EdgeList edges;
  VertexId source = 0;
  {
    // The dataset is fixed (the generator's default seed); the workload
    // seed picks the source.
    const Graph full = gen::make_dataset("twitter", 1.5);
    std::cerr << full.describe("twitter x1.5") << "\n";
    edges = full.coo();
    source = pick_source(full, opt.seed);
  }

  const double inputs_s = static_cast<double>(now_ns() - t_in) * 1e-9;
  ThreadPool pool(kThreads);
  SetupTimes times;
  std::unique_ptr<Installed> in;
  for (int k = 0; k < kSetups; ++k) {
    in.reset();  // one install resident at a time
    EdgeList copy = edges;
    in = install(std::move(copy), log, static_cast<std::uint64_t>(k), pool,
                 times);
  }
  edges = EdgeList();

  // Verification run (untimed): its payloads are checked against the
  // oracles after the timed phase; timed answers must match their folds.
  const std::vector<Pair> pairs = make_pairs(*in, source);
  std::vector<algo::QueryPayload> verified(pairs.size());
  std::vector<double> expect(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    verified[i] =
        pairs[i].spec->invoke(*in->engines[pairs[i].model], pairs[i].params);
    expect[i] = pairs[i].spec->checksum(verified[i]);
  }

  // Timed phase: whole sweeps until the seconds are used and (untraced
  // runs) at least kMinQueries queries ran. A traced run alternates
  // untraced and traced sweeps; the ratio of their per-query time is the
  // tracing overhead.
  SpanLog off(false);
  Sweep plain, traced;
  const std::uint64_t t0 = now_ns();
  for (int s = 0;
       s < 2 || (!opt.trace && plain.latency_ms.size() < kMinQueries) ||
       static_cast<double>(now_ns() - t0) * 1e-9 < opt.seconds;
       ++s) {
    const bool tr = opt.trace && s % 2 == 1;
    sweep_once(pairs, in->engines, expect, tr ? log : off, r,
               tr ? traced : plain);
  }
  const double rss = peak_rss_mb();
  const double timed_s = static_cast<double>(now_ns() - t0) * 1e-9;

  // Correctness (after the timed phase).
  const std::uint64_t t_check = now_ns();
  const std::vector<bool> pair_ok =
      check_payloads(*in, pairs, verified, source, r);
  std::fprintf(stderr,
               "phases: inputs %.2fs, %d setups %.2fs, timed %.2fs, "
               "checks %.2fs\n",
               inputs_s, kSetups,
               std::accumulate(times.setup_s.begin(), times.setup_s.end(), 0.0),
               timed_s, static_cast<double>(now_ns() - t_check) * 1e-9);
  for (const Sweep* sw : {&plain, &traced})
    for (std::size_t i = 0; i < sw->pair_runs.size(); ++i) {
      r.attempted += sw->pair_runs[i];
      r.failed += pair_ok[i] ? sw->pair_failed[i] : sw->pair_runs[i];
    }

  add_query_metrics(r, plain.latency_ms, plain.wall_s);
  r.end_to_end["setup_s"] = {median(times.setup_s), "s",
                             times.setup_s.size()};
  // Nothing is published here; the per-model installs (order, engine,
  // prewarm) are in setup_s and the per-layer figures.
  r.end_to_end["publish_p50_ms"] = {0, "ms", 0};
  r.end_to_end["peak_rss_mb"] = {rss, "MiB", 1};
  if (!opt.trace) return r;

  // ---- per-layer metrics (traced run only)
  r.layer("graph.build_ms", median(times.build_ms), "ms",
          times.build_ms.size());
  r.layer("graph.permute_ms", median(times.permute_ms), "ms",
          times.permute_ms.size());
  r.layer("order.vebo_ms", median(times.vebo_ms), "ms", times.vebo_ms.size());
  for (auto [P, vr, g] : {std::tuple{4, &in->v4, &in->g4},
                          std::tuple{384, &in->v384, &in->g384}}) {
    const auto prof = metrics::profile_partitions(*g, vr->partitioning);
    const std::string suffix = ".p" + std::to_string(P);
    r.layer("order.edge_imbalance" + suffix,
            static_cast<double>(prof.edge_imbalance()), "count");
    r.layer("order.vertex_imbalance" + suffix,
            static_cast<double>(prof.vertex_imbalance()), "count");
  }
  for (int m = 0; m < kModels; ++m)
    r.layer(std::string("framework.prewarm_ms.") + kModelKey[m],
            median(times.prewarm_ms[m]), "ms", times.prewarm_ms[m].size());

  // Per-pair medians at full width, then the 1-thread baseline of the
  // same sweep on single-thread engines over the same graphs.
  std::array<double, kModels> t_full{}, t_one{};
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const double ms = median(traced.pair_ms[i]);
    r.layer("algorithms." + pairs[i].name + "_ms", ms, "ms",
            traced.pair_ms[i].size());
    t_full[pairs[i].model] += ms;
  }
  {
    ThreadPool one(1);
    std::array<std::unique_ptr<Engine>, kModels> serial;
    for (int m = 0; m < kModels; ++m) {
      serial[m] = std::make_unique<Engine>(in->graph(m), kModel[m],
                                           engine_options(*in, m, &one));
      serial[m]->prewarm();
    }
    Sweep base;
    for (int s = 0; s < 3; ++s) sweep_once(pairs, serial, expect, off, r, base);
    for (std::size_t i = 0; i < pairs.size(); ++i)
      t_one[pairs[i].model] += median(base.pair_ms[i]);
  }
  for (int m = 0; m < kModels; ++m)
    r.layer(std::string("parallel.efficiency.") + kModelKey[m],
            t_one[m] / (static_cast<double>(kThreads) * t_full[m]), "ratio",
            3);

  const double per_q_plain =
      plain.wall_s / static_cast<double>(plain.latency_ms.size());
  const double per_q_traced =
      traced.wall_s / static_cast<double>(traced.latency_ms.size());
  r.layer("trace.overhead_pct", (per_q_traced / per_q_plain - 1) * 100, "%",
          traced.latency_ms.size());
  return r;
}

}  // namespace perfbench
