// serve-read and serve-write: the GraphService read and write paths on
// rmat27 at scale 4, split into an 80% seed graph and an update stream
// (the remaining 20% as inserts, plus deletes of seed edges).
//
// A run is a sequence of identical rounds, each a fresh session + service
// (the set-up being measured) followed by a fixed count of epochs and
// queries, so every round does the same work; rounds repeat until the
// run's seconds are used up.
//
//  * serve-read: 3 closed-loop clients, 3 workers, refresh off. Query mix:
//    ~20% repeated dashboard keys, ~60% BFS and ~20% BF from random
//    sources; a writer publishes a small batch each time the clients
//    have sent another fixed count of queries.
//  * serve-write: 2 clients, 2 workers, refresh_on_publish on. Each epoch
//    the writer publishes a large batch while the clients wait; then each
//    client runs a fixed query list: a cold partitioned-COO query (BP),
//    standing dashboard keys (refreshed at publish), one-off BFS.
//
// Every answer's checksum is kept; sampled answers ask for the payload
// and keep a digest of the whole vector. After the timed phase sampled
// ones are checked against AlgorithmSpec::invoke on a replay of the epoch
// their QueryResult::version names.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/registry.hpp"
#include "bench.hpp"
#include "gen/datasets.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/graph_service.hpp"
#include "stream/session.hpp"
#include "support/prng.hpp"

namespace perfbench {
namespace {

using namespace vebo;
using algo::PayloadKind;
using algo::QueryPayload;
using serve::GraphService;
using serve::Query;
using serve::ResultKind;
using stream::EdgeUpdate;

struct Config {
  std::size_t clients = 0;    ///< closed-loop clients = service workers
  std::size_t epochs = 0;     ///< timed epochs per round
  std::size_t per_epoch = 0;  ///< read: queries between publishes (all
                              ///< clients); write: queries per client
  std::size_t batch = 0;      ///< updates per publish (10% deletes)
};

Config config(bool write_heavy) {
  return write_heavy ? Config{2, 5, 12, 16000} : Config{3, 6, 150, 1000};
}

/// Generated inputs (outside every timer).
struct Inputs {
  EdgeList seed;
  /// batches[k] turns version k+1 into version k+2.
  std::vector<std::vector<EdgeUpdate>> batches;
  VertexId hub = 0;
  std::vector<VertexId> sources;  ///< vertices with out-degree >= 1
  /// Vertices that reach the hub: a BFS from one of them traverses all
  /// the hub reaches, so its cost hardly depends on which one is drawn.
  std::vector<VertexId> hub_reachers;
};

Inputs make_inputs(const Config& c, std::uint64_t seed, std::size_t batches) {
  Inputs in;
  // The dataset is fixed (the generator's default seed); the workload
  // seed drives the split, the update stream, the sources and the mix.
  const Graph full = gen::make_dataset("rmat27", 4.0);
  std::vector<Edge> edges(full.coo().edges().begin(),
                          full.coo().edges().end());
  Xoshiro256 rng(seed ^ 0x5EEDF00DULL);
  for (std::size_t i = edges.size(); i > 1; --i)
    std::swap(edges[i - 1], edges[rng.next_below(i)]);
  const std::size_t seed_count = edges.size() * 8 / 10;

  const std::size_t dels = c.batch / 10;
  const std::size_t ins = c.batch - dels;
  VEBO_CHECK(seed_count + batches * ins <= edges.size() &&
                 batches * dels < seed_count,
             "update stream too short for the configured epochs");
  in.batches.resize(batches);
  for (std::size_t k = 0; k < batches; ++k) {
    auto& b = in.batches[k];
    for (std::size_t i = 0; i < ins; ++i) {
      const Edge& e = edges[seed_count + k * ins + i];
      b.push_back(EdgeUpdate::insert(e.src, e.dst));
    }
    // Deletes walk the seed edges from the back: each is live exactly
    // once.
    for (std::size_t i = 0; i < dels; ++i) {
      const Edge& e = edges[seed_count - 1 - (k * dels + i)];
      b.push_back(EdgeUpdate::remove(e.src, e.dst));
    }
  }
  edges.resize(seed_count);
  in.seed = EdgeList(full.num_vertices(), std::move(edges), full.directed());

  const Graph g = Graph::from_edges(in.seed);
  std::cerr << g.describe("rmat27 x4 seed (80%)") << "\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(in.hub)) in.hub = v;
    if (g.out_degree(v) >= 1) in.sources.push_back(v);
  }
  std::vector<char> seen(g.num_vertices(), 0);
  seen[in.hub] = 1;
  in.hub_reachers.push_back(in.hub);
  for (std::size_t i = 0; i < in.hub_reachers.size(); ++i)
    for (const VertexId u : g.in_neighbors(in.hub_reachers[i]))
      if (!seen[u]) {
        seen[u] = 1;
        in.hub_reachers.push_back(u);
      }
  std::sort(in.hub_reachers.begin(), in.hub_reachers.end());
  return in;
}

// ------------------------------------------------------------ query plan

struct Planned {
  Query q;
  std::string key;  ///< canonical (code, validated params)
  bool sample = false;  ///< check this answer against the oracle
};

Planned plan(const std::string& code, algo::QueryParams params,
             ResultKind result, bool sample) {
  Planned p;
  p.key = algo::canonical_query_key(
      code, algo::spec(code).params.validate(params));
  p.q.algo = code;
  p.q.params = std::move(params);
  p.q.result = result;
  p.sample = sample;
  return p;
}

algo::QueryParams source_param(VertexId v) {
  return algo::QueryParams().set("source", v);
}

/// serve-read: one list shared by all clients (a ticket picks the next).
std::vector<Planned> plan_read(const Config& c, const Inputs& in,
                               std::uint64_t seed) {
  // The dashboard asks for payloads. CC, BFS and the PR top-k are checked
  // on every answer; PRD's whole rank vector is kept for the check, so it
  // is sampled once in the first and once in the last epoch.
  const std::vector<Planned> dashboard = {
      plan("PR", algo::QueryParams().set("top_k", 10), ResultKind::Payload,
           true),
      plan("CC", {}, ResultKind::Payload, true),
      plan("PRD", {}, ResultKind::Payload, false),
      plan("BFS", source_param(in.hub), ResultKind::Payload, true),
  };
  // Exact class counts per epoch (20% dashboard, 60% BFS, 20% BF), in a
  // seeded order, so every seed runs the same mix.
  Xoshiro256 rng(seed * 31 + 1);
  std::vector<Planned> out;
  std::size_t dash = 0;
  for (std::size_t e = 0; e < c.epochs; ++e) {
    std::vector<int> cls(c.per_epoch, 1);  // 0 dashboard, 1 BFS, 2 BF
    for (std::size_t i = 0; i < c.per_epoch / 5; ++i) {
      cls[i] = 0;
      cls[c.per_epoch - 1 - i] = 2;
    }
    for (std::size_t i = cls.size(); i > 1; --i)
      std::swap(cls[i - 1], cls[rng.next_below(i)]);
    bool prd_sampled = e != 0 && e + 1 != c.epochs;
    for (const int k : cls) {
      const std::size_t i = out.size();
      if (k == 0) {
        out.push_back(dashboard[dash++ % dashboard.size()]);
        if (out.back().q.algo == "PRD" && !prd_sampled)
          out.back().sample = prd_sampled = true;
        continue;
      }
      // A quarter of the traversals ask for the payload; every fifth of
      // those is sampled.
      const VertexId src = in.sources[rng.next_below(in.sources.size())];
      const ResultKind kind =
          i % 4 == 0 ? ResultKind::Payload : ResultKind::Checksum;
      out.push_back(
          plan(k == 1 ? "BFS" : "BF", source_param(src), kind, i % 20 == 0));
    }
  }
  return out;
}

/// serve-write: per client, per epoch (epoch 0 = the untimed warm-up that
/// computes the standing set once).
using WritePlan = std::vector<std::vector<std::vector<Planned>>>;

WritePlan plan_write(const Config& c, const Inputs& in, std::uint64_t seed) {
  // Refreshable standing keys at converged operating points (refresh ==
  // recompute within tolerance there), plus SPMV with no refresh hook.
  const std::vector<Planned> standing = {
      plan("PR", algo::QueryParams().set("iterations", 100),
           ResultKind::Payload, true),
      plan("PRD",
           algo::QueryParams().set("max_iters", 200).set("epsilon", 1e-8),
           ResultKind::Payload, true),
      plan("CC", {}, ResultKind::Payload, true),
      plan("BFS", source_param(in.hub), ResultKind::Payload, true),
      plan("BF", source_param(in.hub), ResultKind::Payload, true),
      plan("SPMV", {}, ResultKind::Payload, true),
  };
  Xoshiro256 rng(seed * 37 + 5);
  WritePlan out(c.clients, std::vector<std::vector<Planned>>(c.epochs + 1));
  // Warm-up: the standing set, split across clients.
  for (std::size_t i = 0; i < standing.size(); ++i)
    out[i % c.clients][0].push_back(standing[i]);
  std::size_t oneoffs = 0;
  for (std::size_t e = 1; e <= c.epochs; ++e) {
    // Answers whose whole value vector is kept for the check (PR, PRD,
    // SPMV, BP) are sampled once per key in the first and the last epoch;
    // CC/BFS/BF digests are one hash, so every standing answer is checked.
    const bool keep_vectors = e == 1 || e == c.epochs;
    std::set<std::string> kept;
    const auto sample_vector = [&](const Planned& p) {
      return keep_vectors && kept.insert(p.key).second;
    };
    for (std::size_t cl = 0; cl < c.clients; ++cl) {
      auto& list = out[cl][e];
      // First query of the epoch: a short BP (partitioned-COO path, no
      // refresh hook), one key per client, so it misses on every epoch.
      list.push_back(plan("BP",
                          algo::QueryParams()
                              .set("iterations", 3)
                              .set("coupling", 0.5 - 0.1 * double(cl)),
                          ResultKind::Payload, false));
      list.back().sample = sample_vector(list.back());
      for (std::size_t j = 1; j < c.per_epoch; ++j) {
        if (j % 2 == 0) {
          list.push_back(standing[(e * c.clients + cl + j) % standing.size()]);
          const std::string& code = list.back().q.algo;
          if (code != "CC" && code != "BFS" && code != "BF")
            list.back().sample = sample_vector(list.back());
        } else {
          // One-off BFS from a vertex that reaches the hub; every third is
          // sampled and asks for the payload.
          const VertexId src =
              in.hub_reachers[rng.next_below(in.hub_reachers.size())];
          const bool sample = oneoffs++ % 3 == 0;
          list.push_back(plan("BFS", source_param(src),
                              sample ? ResultKind::Payload
                                     : ResultKind::Checksum,
                              sample));
        }
      }
    }
  }
  return out;
}

// -------------------------------------------------------------- digests

/// CC/BFS/BF answers must match bit for bit.
bool exact_algo(const std::string& code) {
  return code == "BFS" || code == "CC" || code == "BF";
}

/// What the checks need of one answer: a hash of the whole vector for
/// the exact algorithms, the whole vector for the rest (compared within
/// tolerance).
struct Digest {
  double checksum = 0;
  int kind = -1;  ///< PayloadKind, or -1 when no payload came back
  std::size_t size = 0;
  std::uint64_t bits = 0;       ///< hash of the raw values (exact algos)
  std::vector<double> values;   ///< VertexDoubles of the other algos
  std::vector<algo::VertexScore> top;
};

/// FNV-1a-style hash over 8-byte words of the raw values (the tail
/// zero-padded), with an xor-shift so high bits feed back.
template <typename T>
std::uint64_t hash_values(const std::vector<T>& xs) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(xs.data());
  const std::size_t n = xs.size() * sizeof(T);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + i, std::min<std::size_t>(8, n - i));
    h = (h ^ w) * 1099511628211ULL;
    h ^= h >> 29;
  }
  return h;
}

Digest digest(const std::string& code, double checksum,
              const QueryPayload* p) {
  Digest d;
  d.checksum = checksum;
  if (p == nullptr) return d;
  d.kind = static_cast<int>(p->kind());
  d.size = p->num_entries();
  switch (p->kind()) {
    case PayloadKind::VertexIds: d.bits = hash_values(p->ids()); break;
    case PayloadKind::VertexDoubles:
      if (exact_algo(code)) d.bits = hash_values(p->doubles());
      else d.values = p->doubles();
      break;
    case PayloadKind::TopK: d.top = p->top(); break;
    default: break;
  }
  return d;
}

/// CC/BFS/BF bit for bit; PR/PRD within the refresh tolerance; the rest
/// (SPMV, BP) within summation noise. Every value is compared.
bool matches(const std::string& code, const Digest& got, const Digest& want,
             double n) {
  const bool exact = exact_algo(code);
  const bool ranks = code == "PR" || code == "PRD";
  const double rel = ranks ? 1e-4 : 1e-9;
  if (exact ? got.checksum != want.checksum
            : !close(got.checksum, want.checksum, rel, 1e-12))
    return false;
  if (got.kind != want.kind || got.size != want.size) return false;
  if (exact) return got.bits == want.bits && got.top == want.top;
  if (got.values.size() != want.values.size()) return false;
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    const double w = want.values[i];
    const double tol =
        ranks ? 1e-5 * (std::abs(w) + 1.0 / n) : 1e-9 * std::abs(w) + 1e-15;
    if (!(std::abs(got.values[i] - w) <= tol)) return false;
  }
  if (got.top.size() != want.top.size()) return false;
  for (std::size_t i = 0; i < got.top.size(); ++i)
    if (got.top[i].vertex != want.top[i].vertex ||
        !close(got.top[i].score, want.top[i].score, rel, 1e-15))
      return false;
  return true;
}

// ------------------------------------------------------------ one round

struct Answer {
  std::uint32_t plan = 0;    ///< index into the plan list
  std::uint64_t version = 0;
  std::uint64_t submit_ns = 0;
  double latency_ms = 0;
  bool ok = false;           ///< arrived (not rejected, not thrown)
  bool hit = false;
  bool timed = true;         ///< false for the serve-write warm-up
  /// Sampled answers, and every CC/BFS/BF payload (for the agreement
  /// check).
  std::optional<Digest> dig;
  double checksum = 0;
};

struct PublishTimes {
  double apply_ms = 0, snapshot_ms = 0, publish_ms = 0, total_ms = 0;
};

struct Round {
  double setup_ms = 0, build_ms = 0, init_ms = 0;
  double wall_s = 0;        ///< timed phase, until the last answer
  double writer_tail_s = 0; ///< serve-read: writer still publishing after
  std::vector<Answer> answers;
  std::vector<PublishTimes> publishes;
  stream::SessionStats session;
  stream::RebalanceStats rebalance;
  serve::GraphServiceStats service;
  serve::EnginePoolStats pool;
  std::vector<GraphService::RefreshLatency> refresh;
  double reported_p95_ms = 0;
  std::uint64_t traces_kept = 0;
};

/// One served graph. The service is declared last: it references the
/// store and is destroyed first.
struct Served {
  serve::SnapshotStore store;
  std::optional<stream::StreamSession> session;
  std::optional<GraphService> service;
};

serve::GraphServiceOptions service_options(const Config& c, bool write_heavy) {
  serve::GraphServiceOptions o;
  o.workers = c.clients;
  o.engine.model = SystemModel::Polymer;
  o.engine.threads_per_engine = 1;
  o.refresh_on_publish = write_heavy;
  return o;
}

/// Submits one planned query and waits (closed loop).
Answer ask(GraphService& service, const Planned& p, std::uint32_t idx,
           SpanLog& log, std::uint64_t tag) {
  Answer a;
  a.plan = idx;
  Scope q(log, "query", 0, tag);
  a.submit_ns = now_ns();
  serve::QueryResult res;
  {
    Scope call(log, "serve.query", q.id(), tag);
    serve::Submission s = service.submit(p.q);
    if (s.accepted()) {
      try {
        res = s.result.get();
        a.ok = true;
      } catch (const std::exception&) {
        a.ok = false;
      }
    }
  }
  a.latency_ms = q.stop();
  if (a.ok) {
    a.version = res.version;
    a.hit = res.cache_hit;
    a.checksum = res.value;
    if (p.sample || (res.payload && exact_algo(p.q.algo)))
      a.dig = digest(p.q.algo, res.value, res.payload.get());
  }
  return a;
}

class Rounds {
 public:
  Rounds(const Config& c, const Inputs& in, bool write_heavy,
         std::uint64_t seed)
      : c_(c), in_(in), write_heavy_(write_heavy) {
    if (write_heavy) {
      write_plan_ = plan_write(c, in, seed);
      for (auto& client : write_plan_)
        for (auto& epoch : client)
          for (auto& p : epoch) index_.push_back(&p);
    } else {
      read_plan_ = plan_read(c, in, seed);
      for (auto& p : read_plan_) index_.push_back(&p);
    }
  }

  const Planned& planned(std::uint32_t idx) const { return *index_[idx]; }

  /// Edge list in memory -> graph, session, service, first publish:
  /// everything before the first query can be answered.
  std::unique_ptr<Served> setup(SpanLog& log, std::uint64_t round,
                                Round& r) const {
    auto sv = std::make_unique<Served>();
    EdgeList el = in_.seed;  // copy outside the timer
    Scope setup(log, "setup", 0, round);
    Graph g;
    {
      Scope s(log, "graph.from_edges", setup.id(), round);
      g = Graph::from_edges(std::move(el));
      r.build_ms = s.stop();
    }
    {
      Scope s(log, "stream.init", setup.id(), round);
      sv->session.emplace(g);
      r.init_ms = s.stop();
    }
    g = Graph();
    {
      Scope s(log, "serve.init", setup.id(), round);
      sv->service.emplace(sv->store, service_options(c_, write_heavy_));
    }
    {
      Scope s(log, "stream.snapshot", setup.id(), round);
      sv->session->shared_snapshot();
    }
    {
      Scope s(log, "serve.publish", setup.id(), round);
      sv->service->publish_session(*sv->session);
    }
    r.setup_ms = setup.stop();
    return sv;
  }

  Round run(SpanLog& log, std::uint64_t round) const {
    Round r;
    const std::unique_ptr<Served> sv = setup(log, round, r);
    stream::StreamSession& session = *sv->session;
    GraphService& service = *sv->service;
    if (write_heavy_)
      run_write(session, service, log, round, r);
    else
      run_read(session, service, log, round, r);
    service.stop();
    r.session = session.stats();
    r.rebalance = session.maintainer().stats();
    r.service = service.stats();
    r.pool = service.engine_pool().stats();
    r.refresh = service.refresh_latency();
    r.reported_p95_ms = service.latency().p95_ms;
    r.traces_kept = service.health().traces_captured;
    return r;
  }

 private:
  PublishTimes publish(stream::StreamSession& session, GraphService& service,
                       std::size_t k, SpanLog& log) const {
    PublishTimes t;
    Scope pub(log, "publish", 0, k + 2);
    {
      Scope s(log, "stream.apply", pub.id(), k + 2);
      session.apply(in_.batches[k]);
      t.apply_ms = s.stop();
    }
    {
      Scope s(log, "stream.snapshot", pub.id(), k + 2);
      session.shared_snapshot();
      t.snapshot_ms = s.stop();
    }
    {
      Scope s(log, "serve.publish", pub.id(), k + 2);
      service.publish_session(session);
      t.publish_ms = s.stop();
    }
    t.total_ms = pub.stop();
    return t;
  }

  void run_read(stream::StreamSession& session, GraphService& service,
                SpanLog& log, std::uint64_t round, Round& r) const {
    const std::size_t n = read_plan_.size();
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint32_t> boundaries{0};
    std::vector<std::vector<Answer>> per_client(c_.clients);
    const std::uint64_t t0 = now_ns();
    // The writer publishes batch k once the clients have sent
    // (k+1) * per_epoch queries: publish counts follow query counts.
    std::exception_ptr failed;
    std::thread writer([&] {
      try {
        for (std::uint32_t k = 0; k + 1 < c_.epochs; ++k) {
          for (std::uint32_t b = boundaries.load(); b <= k;
               b = boundaries.load())
            boundaries.wait(b);
          r.publishes.push_back(publish(session, service, k, log));
        }
      } catch (...) {
        failed = std::current_exception();
      }
    });
    std::vector<std::thread> clients;
    for (std::size_t cl = 0; cl < c_.clients; ++cl)
      clients.emplace_back([&, cl] {
        for (;;) {
          const std::size_t t = next.fetch_add(1);
          if (t >= n) break;
          if (t > 0 && t % c_.per_epoch == 0) {
            boundaries.fetch_add(1);
            boundaries.notify_all();
          }
          per_client[cl].push_back(
              ask(service, read_plan_[t], static_cast<std::uint32_t>(t), log,
                  round << 32 | t));
        }
      });
    // The timed phase ends with the last answer; a writer that lags the
    // clients shows as a tail here and in the answers per version.
    for (auto& t : clients) t.join();
    r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    writer.join();
    r.writer_tail_s = static_cast<double>(now_ns() - t0) * 1e-9 - r.wall_s;
    if (failed) std::rethrow_exception(failed);
    for (auto& v : per_client)
      r.answers.insert(r.answers.end(), v.begin(), v.end());
  }

  void run_write(stream::StreamSession& session, GraphService& service,
                 SpanLog& log, std::uint64_t round, Round& r) const {
    // released = the last epoch clients may run; done = client-epochs
    // finished. Clients wait at each boundary until the writer's publish.
    std::atomic<std::uint32_t> released{0};
    std::atomic<std::uint32_t> done{0};
    std::vector<std::vector<Answer>> per_client(c_.clients);
    std::vector<std::vector<std::uint32_t>> first(c_.clients);
    {
      std::uint32_t idx = 0;
      for (std::size_t cl = 0; cl < c_.clients; ++cl)
        for (const auto& epoch : write_plan_[cl]) {
          first[cl].push_back(idx);
          idx += static_cast<std::uint32_t>(epoch.size());
        }
    }
    std::vector<std::thread> clients;
    for (std::size_t cl = 0; cl < c_.clients; ++cl)
      clients.emplace_back([&, cl] {
        for (std::uint32_t e = 0; e <= c_.epochs; ++e) {
          for (std::uint32_t v = released.load(); v < e; v = released.load())
            released.wait(v);
          const auto& list = write_plan_[cl][e];
          for (std::size_t j = 0; j < list.size(); ++j) {
            Answer a = ask(service, list[j],
                           first[cl][e] + static_cast<std::uint32_t>(j), log,
                           round << 32 | (e << 8) | (cl << 4) | j);
            a.timed = e > 0;
            per_client[cl].push_back(std::move(a));
          }
          done.fetch_add(1);
          done.notify_all();
        }
      });
    const auto wait_done = [&](std::uint32_t target) {
      for (std::uint32_t d = done.load(); d < target; d = done.load())
        done.wait(d);
    };
    const auto nc = static_cast<std::uint32_t>(c_.clients);
    std::exception_ptr failed;
    try {
      wait_done(nc);  // warm-up epoch
      const std::uint64_t t0 = now_ns();
      for (std::uint32_t e = 1; e <= c_.epochs; ++e) {
        r.publishes.push_back(publish(session, service, e - 1, log));
        released.store(e);
        released.notify_all();
        wait_done(nc * (e + 1));
      }
      r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    } catch (...) {
      // Let the clients run out their lists so they can be joined.
      failed = std::current_exception();
      released.store(static_cast<std::uint32_t>(c_.epochs));
      released.notify_all();
    }
    for (auto& t : clients) t.join();
    if (failed) std::rethrow_exception(failed);
    for (auto& v : per_client)
      r.answers.insert(r.answers.end(), v.begin(), v.end());
  }

  Config c_;
  const Inputs& in_;
  bool write_heavy_;
  std::vector<Planned> read_plan_;
  WritePlan write_plan_;
  std::vector<const Planned*> index_;
};

// ---------------------------------------------------------------- checks

/// Replays the update stream on a fresh session and checks every sampled
/// answer against spec.invoke on the epoch its version names. Answers of
/// one (key, version) must also agree with each other: on the checksum,
/// and for CC/BFS/BF payloads on the hash of the whole vector.
void check_answers(const Inputs& in, const Rounds& rounds,
                   std::vector<Round>& all, RunResult& r) {
  // version -> sampled plans; (key, version) -> the first checksum and
  // the first payload hash seen.
  using KeyVersion = std::pair<std::string, std::uint64_t>;
  std::map<std::uint64_t, std::set<std::uint32_t>> wanted;
  std::map<KeyVersion, double> agreed;
  std::map<KeyVersion, std::uint64_t> agreed_bits;
  for (auto& round : all)
    for (auto& a : round.answers) {
      if (!a.ok) continue;
      const Planned& p = rounds.planned(a.plan);
      const auto [it, fresh] =
          agreed.try_emplace({p.key, a.version}, a.checksum);
      bool agree = fresh || close(it->second, a.checksum, 1e-9, 1e-15);
      if (a.dig && a.dig->kind >= 0 && exact_algo(p.q.algo)) {
        const auto [b, first] =
            agreed_bits.try_emplace({p.key, a.version}, a.dig->bits);
        agree = agree && (first || b->second == a.dig->bits);
      }
      if (!agree) {
        a.ok = false;
        r.fail_check(p.key + " v" + std::to_string(a.version) +
                     ": answers of one epoch disagree");
      }
      if (p.sample) wanted[a.version].insert(a.plan);
    }

  stream::StreamSession replay(Graph::from_edges(in.seed));
  ThreadPool pool(4);  // oracle runs are untimed: use every core
  std::uint64_t at = 1;  // version the replay session holds
  std::map<std::pair<std::string, std::uint64_t>, Digest> oracle;
  for (const auto& [version, plans] : wanted) {
    for (; at < version; ++at) replay.apply(in.batches[at - 1]);
    const Graph& snap = replay.snapshot();
    const Permutation& perm = replay.maintainer().ordering().perm;
    EngineOptions eo;
    eo.explicit_partitioning = &replay.maintainer().partitioning();
    eo.pool = &pool;
    const Engine eng(snap, SystemModel::Polymer, eo);
    for (std::uint32_t idx : plans) {
      const Planned& p = rounds.planned(idx);
      if (oracle.count({p.key, version})) continue;
      const algo::AlgorithmSpec& spec = algo::spec(p.q.algo);
      algo::QueryParams exec = p.q.params;
      if (exec.has("source"))
        exec.set("source", perm[exec.get_vertex("source")]);
      const QueryPayload out = spec.invoke(eng, exec);
      const QueryPayload orig = algo::translate_to_original_ids(out, perm);
      oracle[{p.key, version}] = digest(p.q.algo, spec.checksum(out), &orig);
    }
  }
  const double n = static_cast<double>(in.seed.num_vertices());
  for (auto& round : all)
    for (auto& a : round.answers) {
      const Planned& p = rounds.planned(a.plan);
      if (!a.ok || !p.sample) continue;
      if (!matches(p.q.algo, *a.dig, oracle.at({p.key, a.version}), n)) {
        a.ok = false;
        r.fail_check(p.key + " v" + std::to_string(a.version) +
                     (a.hit ? " (cache hit)" : "") +
                     ": differs from invoke on that epoch");
      }
    }
}

}  // namespace

RunResult run_serve(const RunOptions& opt, SpanLog& log, bool write_heavy) {
  RunResult res;
  const Config c = config(write_heavy);
  const std::uint64_t t_in = now_ns();
  const Inputs in =
      make_inputs(c, opt.seed, write_heavy ? c.epochs : c.epochs - 1);
  const Rounds rounds(c, in, write_heavy, opt.seed);
  const double inputs_s = static_cast<double>(now_ns() - t_in) * 1e-9;

  // Whole rounds until the seconds are used. A traced run alternates
  // untraced and traced rounds; the ratio of their per-query time is the
  // tracing overhead.
  SpanLog off(false);
  // Set-up is also measured three times on its own, so setup_s is a
  // median of at least four whatever the round count.
  std::vector<double> setup_s;
  for (std::uint64_t k = 0; k < 3; ++k) {
    Round scratch;
    rounds.setup(log, 1000 + k, scratch);
    setup_s.push_back(scratch.setup_ms * 1e-3);
  }
  // Untraced runs put at least kMinQueries timed queries into the
  // end-to-end figures, so the p95 has ten samples beyond it.
  std::vector<Round> plain, traced;
  std::size_t plain_queries = 0;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t k = 0;
       k < (opt.trace ? 2u : 1u) ||
       (!opt.trace && plain_queries < kMinQueries) ||
       static_cast<double>(now_ns() - t0) * 1e-9 < opt.seconds;
       ++k) {
    const bool tr = opt.trace && k % 2 == 1;
    (tr ? traced : plain).push_back(rounds.run(tr ? log : off, k));
    if (!tr)
      for (const auto& a : plain.back().answers) plain_queries += a.timed;
  }
  const double rss = peak_rss_mb();
  const double timed_s = static_cast<double>(now_ns() - t0) * 1e-9;

  std::vector<Round> all = std::move(plain);
  const std::size_t n_plain = all.size();
  for (auto& t : traced) all.push_back(std::move(t));
  const std::uint64_t t_check = now_ns();
  check_answers(in, rounds, all, res);
  std::fprintf(stderr,
               "phases: inputs %.2fs, %zu rounds %.2fs, checks %.2fs\n",
               inputs_s, all.size(), timed_s,
               static_cast<double>(now_ns() - t_check) * 1e-9);

  // Per-class latency, so a reader can see which class p50/p95 sit in.
  {
    std::map<std::string, std::vector<double>> by_class;
    for (std::size_t i = 0; i < n_plain; ++i)
      for (const auto& a : all[i].answers) {
        if (!a.timed || !a.ok) continue;
        const Planned& p = rounds.planned(a.plan);
        by_class[p.q.algo + (a.hit ? " hit" : " miss")].push_back(
            a.latency_ms);
      }
    std::cerr << "latency by class (untraced rounds):\n";
    for (const auto& [name, xs] : by_class)
      std::fprintf(stderr, "  %-28s n=%-6zu p50=%9.3f p95=%9.3f max=%9.3f ms\n",
                   name.c_str(), xs.size(), pct(xs, 50), pct(xs, 95),
                   pct(xs, 100));
    for (std::size_t i = 0; i < n_plain; ++i) {
      std::map<std::uint64_t, std::size_t> per_version;
      for (const auto& a : all[i].answers)
        if (a.timed && a.ok) ++per_version[a.version];
      std::fprintf(stderr, "round %zu: writer tail %.3f s; answers per version:",
                   i, all[i].writer_tail_s);
      for (const auto& [v, count] : per_version)
        std::fprintf(stderr, " v%llu=%zu", static_cast<unsigned long long>(v),
                     count);
      std::fprintf(stderr, "\n");
    }
  }

  // ---- end-to-end metrics (untraced rounds)
  for (const auto& rd : all)
    for (const auto& a : rd.answers) {
      ++res.attempted;
      if (!a.ok) ++res.failed;
    }
  // Wall time and timed-query count (failed or not) of rounds [lo, hi).
  const auto load = [&](std::size_t lo, std::size_t hi) {
    double wall = 0;
    std::size_t queries = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      wall += all[i].wall_s;
      for (const auto& a : all[i].answers) queries += a.timed ? 1 : 0;
    }
    return std::pair{wall, queries};
  };
  std::vector<double> lat, pub_ms;
  for (std::size_t i = 0; i < n_plain; ++i) {
    setup_s.push_back(all[i].setup_ms * 1e-3);
    for (const auto& p : all[i].publishes) pub_ms.push_back(p.total_ms);
    for (const auto& a : all[i].answers)
      if (a.timed && a.ok) lat.push_back(a.latency_ms);
  }
  const auto [wall, timed] = load(0, n_plain);
  add_query_metrics(res, lat, wall);
  res.end_to_end["qps"] = {static_cast<double>(timed) / wall, "1/s", timed};
  res.end_to_end["setup_s"] = {median(setup_s), "s", setup_s.size()};
  res.end_to_end["publish_p50_ms"] = {median(pub_ms), "ms", pub_ms.size()};
  res.end_to_end["peak_rss_mb"] = {rss, "MiB", 1};
  if (!opt.trace) return res;

  // ---- per-layer metrics (traced rounds)
  const std::size_t lo = n_plain, hi = all.size();
  std::vector<double> build, init, apply, snap, publish, total, hit_us,
      miss_ms, first_miss;
  std::size_t hits = 0, timed_ok = 0;
  std::map<std::string, std::pair<std::uint64_t, double>> refresh;
  for (std::size_t i = lo; i < hi; ++i) {
    const Round& rd = all[i];
    build.push_back(rd.build_ms);
    init.push_back(rd.init_ms);
    for (const auto& p : rd.publishes) {
      apply.push_back(p.apply_ms);
      snap.push_back(p.snapshot_ms);
      publish.push_back(p.publish_ms);
      total.push_back(p.total_ms);
    }
    // First miss per (version, algorithm), by submit time.
    std::map<std::pair<std::uint64_t, std::string>, const Answer*> firsts;
    for (const auto& a : rd.answers) {
      if (!a.timed || !a.ok) continue;
      ++timed_ok;
      if (a.hit) {
        ++hits;
        hit_us.push_back(a.latency_ms * 1e3);
        continue;
      }
      miss_ms.push_back(a.latency_ms);
      const auto key = std::pair{a.version, rounds.planned(a.plan).q.algo};
      const auto [it, fresh] = firsts.try_emplace(key, &a);
      if (!fresh && a.submit_ns < it->second->submit_ns) it->second = &a;
    }
    for (const auto& [_, a] : firsts) first_miss.push_back(a->latency_ms);
    for (const auto& rl : rd.refresh) {
      refresh[rl.algo].first += rl.count;
      refresh[rl.algo].second += rl.total_ms;
    }
  }
  const Round& last = all.back();
  res.layer("graph.build_ms", median(build), "ms", build.size());
  res.layer("stream.init_ms", median(init), "ms", init.size());
  res.layer("stream.apply_ms", median(apply), "ms", apply.size());
  res.layer("stream.snapshot_ms", median(snap), "ms", snap.size());
  res.layer("serve.publish_ms", median(publish), "ms", publish.size());
  res.layer("trace.publish_remainder_ms",
            median(total) - median(apply) - median(snap) - median(publish),
            "ms", total.size());
  res.layer("stream.rebalances.incremental",
            static_cast<double>(last.rebalance.incremental), "count");
  res.layer("stream.rebalances.full",
            static_cast<double>(last.rebalance.full), "count");
  res.layer("stream.compactions",
            static_cast<double>(last.session.compactions), "count");
  res.layer("serve.hit_ratio",
            timed_ok ? static_cast<double>(hits) / static_cast<double>(timed_ok)
                     : 0,
            "ratio", timed_ok);
  res.layer("serve.hit_p50_us", median(hit_us), "us", hit_us.size());
  res.layer("serve.miss_p50_ms", median(miss_ms), "ms", miss_ms.size());
  res.layer("serve.first_miss_ms", median(first_miss), "ms",
            first_miss.size());
  res.layer("serve.refreshes", static_cast<double>(last.service.refreshes),
            "count");
  res.layer("serve.invalidations",
            static_cast<double>(last.service.invalidations), "count");
  res.layer("serve.evictions", static_cast<double>(last.service.evictions),
            "count");
  res.layer("serve.rejected", static_cast<double>(last.service.rejected),
            "count");
  res.layer("serve.engine_rebinds", static_cast<double>(last.pool.rebinds),
            "count");
  res.layer("serve.engines_created", static_cast<double>(last.pool.created),
            "count");
  for (const auto& [code, cm] : refresh)
    if (cm.first > 0)
      res.layer("algorithms.refresh_ms." + code,
                cm.second / static_cast<double>(cm.first), "ms", cm.first);
  res.layer("obs.reported_p95_ms", last.reported_p95_ms, "ms");
  res.layer("obs.traces_kept", static_cast<double>(last.traces_kept), "count");

  const auto [twall, ttimed] = load(lo, hi);
  const double per_q_plain = wall / static_cast<double>(timed);
  const double per_q_traced = twall / static_cast<double>(ttimed);
  res.layer("trace.overhead_pct", (per_q_traced / per_q_plain - 1) * 100, "%",
            ttimed);
  return res;
}

}  // namespace perfbench
