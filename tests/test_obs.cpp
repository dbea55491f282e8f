// Tests for the observability plane (src/obs): the per-query execution
// tracer (ring semantics, arming, thread isolation, Chrome trace-event
// export), the MetricsRegistry (owned instruments, collectors, both
// exposition formats), the end-to-end traced query through GraphService
// (every serve-path stage plus the framework steps under it), and the
// stats-ledger invariant `submitted == completed + failed + rejected +
// in_flight` under concurrent observation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "algorithms/registry.hpp"
#include "framework/edgemap.hpp"
#include "framework/engine.hpp"
#include "gen/rmat.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "serve/graph_service.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/session.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace vebo {
namespace {

using obs::MetricSample;
using obs::MetricsRegistry;
using obs::MetricType;
using obs::Span;
using obs::SpanKind;
using obs::SpanScope;
using obs::ThreadTrace;
using obs::Trace;
using obs::Tracer;
using serve::GraphService;
using serve::GraphServiceOptions;
using serve::Query;
using serve::QueryResult;
using serve::SnapshotStore;
using stream::StreamSession;

// ------------------------------------------------- mini JSON validator
//
// A deliberately small recursive-descent JSON parser so the exported
// Chrome trace strings are validated as *JSON*, not just grepped.
// Throws vebo::Error on any syntax violation.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  const JsonObject& object() const { return std::get<JsonObject>(v); }
  const JsonArray& array() const { return std::get<JsonArray>(v); }
  double number() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
  const JsonValue* find(const std::string& key) const {
    const auto& o = object();
    const auto it = o.find(key);
    return it == o.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    VEBO_CHECK(pos_ == s_.size(), "json: trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    skip_ws();
    VEBO_CHECK(pos_ < s_.size(), "json: unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    VEBO_CHECK(peek() == c, std::string("json: expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't': return literal("true", JsonValue{true});
      case 'f': return literal("false", JsonValue{false});
      case 'n': return literal("null", JsonValue{nullptr});
      default: return number();
    }
  }
  JsonValue literal(const char* lit, JsonValue v) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_)
      VEBO_CHECK(pos_ < s_.size() && s_[pos_] == *p, "json: bad literal");
    return v;
  }
  JsonValue object() {
    expect('{');
    JsonObject o;
    if (peek() == '}') {
      ++pos_;
      return JsonValue{std::move(o)};
    }
    while (true) {
      VEBO_CHECK(peek() == '"', "json: object key must be a string");
      std::string key = string();
      expect(':');
      o.emplace(std::move(key), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{std::move(o)};
    }
  }
  JsonValue array() {
    expect('[');
    JsonArray a;
    if (peek() == ']') {
      ++pos_;
      return JsonValue{std::move(a)};
    }
    while (true) {
      a.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{std::move(a)};
    }
  }
  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      VEBO_CHECK(pos_ < s_.size(), "json: unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      VEBO_CHECK(static_cast<unsigned char>(c) >= 0x20,
                 "json: raw control char in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      VEBO_CHECK(pos_ < s_.size(), "json: dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          VEBO_CHECK(pos_ + 4 <= s_.size(), "json: short \\u escape");
          for (int i = 0; i < 4; ++i)
            VEBO_CHECK(std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])),
                       "json: bad \\u escape");
          out.push_back('?');  // tests only check structure
          pos_ += 4;
          break;
        }
        default: throw Error("json: unknown escape");
      }
    }
  }
  JsonValue number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t before = pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
      VEBO_CHECK(pos_ > before, "json: bad number");
    };
    digits();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      digits();
    }
    return JsonValue{std::stod(s_.substr(start, pos_ - start))};
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Chrome trace-event schema check: a top-level object with a
/// "traceEvents" array; every event has name/ph/pid/tid/ts; complete
/// ("X") slices additionally carry a non-negative dur.
void validate_chrome_trace(const std::string& json, std::size_t* x_events) {
  const JsonValue root = JsonParser(json).parse();
  ASSERT_TRUE(root.is_object());
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::size_t x = 0;
  for (const JsonValue& e : events->array()) {
    ASSERT_TRUE(e.is_object());
    const JsonValue* name = e.find("name");
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_TRUE(name->is_string());
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (ph->str() == "X") {
      ++x;
      const JsonValue* ts = e.find("ts");
      const JsonValue* dur = e.find("dur");
      ASSERT_NE(ts, nullptr);
      ASSERT_TRUE(ts->is_number());
      ASSERT_GE(ts->number(), 0.0);
      ASSERT_NE(dur, nullptr);
      ASSERT_TRUE(dur->is_number());
      ASSERT_GE(dur->number(), 0.0);
    }
  }
  if (x_events != nullptr) *x_events = x;
}

// --------------------------------------------------------------- tracer

TEST(Tracer, DisarmedIsInert) {
  EXPECT_FALSE(obs::tracing_enabled());
  EXPECT_FALSE(Tracer::thread_tracing());
  SpanScope s(SpanKind::EdgeMap);
  EXPECT_FALSE(s.live());
  EXPECT_FALSE(obs::stage_wanted());  // no sink for caller-stamped spans
  EXPECT_THROW(Tracer::end(), Error);
}

TEST(Tracer, BeginRecordsScopedSpansInStartOrder) {
  ThreadTrace tt;
  EXPECT_TRUE(obs::tracing_enabled());
  EXPECT_TRUE(Tracer::thread_tracing());
  EXPECT_NE(tt.id(), 0u);
  for (int i = 0; i < 3; ++i) {
    SpanScope s(SpanKind::Iteration);
    ASSERT_TRUE(s.live());
    s.span().a = static_cast<std::uint64_t>(i);
  }
  const Trace t = tt.finish();
  EXPECT_FALSE(obs::tracing_enabled());
  EXPECT_EQ(t.id, tt.id());
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.recorded, 3u);
  EXPECT_EQ(t.dropped, 0u);
  EXPECT_GE(t.end_ns, t.begin_ns);
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    EXPECT_EQ(t.spans[i].kind, SpanKind::Iteration);
    EXPECT_EQ(t.spans[i].a, i);  // start order == record order here
    EXPECT_GE(t.spans[i].start_ns, t.begin_ns);
    if (i > 0) {
      EXPECT_GE(t.spans[i].start_ns, t.spans[i - 1].start_ns);
    }
  }
}

TEST(Tracer, RingWrapKeepsNewestAndCountsDropped) {
  ThreadTrace tt(/*capacity=*/8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    SpanScope s(SpanKind::EdgeMap);
    ASSERT_TRUE(s.live());
    s.span().a = i;
  }
  const Trace t = tt.finish();
  ASSERT_EQ(t.spans.size(), 8u);
  EXPECT_EQ(t.recorded, 20u);
  EXPECT_EQ(t.dropped, 12u);
  // The survivors are the NEWEST 8 spans (oldest were overwritten).
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(t.spans[i].a, 12 + i);
}

TEST(Tracer, DoubleBeginThrowsAndDiscardDisarms) {
  {
    ThreadTrace tt;
    EXPECT_THROW(Tracer::begin(), Error);
    // tt destroyed without finish(): the discard path must disarm.
  }
  EXPECT_FALSE(obs::tracing_enabled());
}

TEST(Tracer, OtherThreadsSpansStayOut) {
  ThreadTrace tt;
  {
    SpanScope mine(SpanKind::Execute);
  }
  std::thread other([] {
    // Armed globally but this thread holds no trace: scope must be dead
    // and a caller-stamped span must land nowhere (no cross-thread
    // leakage).
    EXPECT_TRUE(obs::tracing_enabled());
    EXPECT_FALSE(Tracer::thread_tracing());
    EXPECT_FALSE(obs::stage_wanted());
    SpanScope s(SpanKind::Translate);
    EXPECT_FALSE(s.live());
    Span manual;
    manual.kind = SpanKind::Translate;
    obs::record_stage(manual);
  });
  other.join();
  const Trace t = tt.finish();
  ASSERT_EQ(t.spans.size(), 1u);
  EXPECT_EQ(t.spans[0].kind, SpanKind::Execute);
}

TEST(Tracer, ConcurrentTracesDoNotMix) {
  constexpr int kThreads = 4;
  std::vector<std::thread> ts;
  std::vector<Trace> traces(kThreads);
  for (int i = 0; i < kThreads; ++i)
    ts.emplace_back([i, &traces] {
      ThreadTrace tt;
      for (int j = 0; j < 50; ++j) {
        SpanScope s(SpanKind::Iteration);
        if (s.live()) s.span().a = static_cast<std::uint64_t>(i);
      }
      traces[i] = tt.finish();
    });
  for (auto& t : ts) t.join();
  std::set<std::uint64_t> ids;
  for (int i = 0; i < kThreads; ++i) {
    ids.insert(traces[i].id);
    ASSERT_EQ(traces[i].spans.size(), 50u) << i;
    for (const Span& s : traces[i].spans)
      EXPECT_EQ(s.a, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads));  // unique ids
}

// Framework instrumentation end-to-end: an armed thread running an
// edge_map / edge_fold records framework spans with the heuristic's
// inputs, without the trace forcing any out-degree walk.
TEST(Tracer, FrameworkStepsRecordHeuristicInputs) {
  const Graph g = gen::rmat(8, 4, /*seed=*/11);
  Engine eng(g, SystemModel::Ligra);
  struct Fn {
    bool update(VertexId, VertexId) { return true; }
    bool update_atomic(VertexId, VertexId v) { return update(0, v); }
    bool cond(VertexId) const { return true; }
  };
  ThreadTrace tt;
  VertexSubset all = VertexSubset::all(g.num_vertices());
  edge_map(eng, all, Fn{}, {.direction = Direction::Pull});
  std::vector<double> acc(g.num_vertices(), 0.0);
  edge_fold<double>(
      eng, [](VertexId, VertexId) { return 1.0; },
      [&](VertexId v, double a) { acc[v] = a; });
  edge_map(eng, all, Fn{});
  const Trace t = tt.finish();
  ASSERT_GE(t.spans.size(), 3u);
  const Span& em = t.spans[0];
  EXPECT_EQ(em.kind, SpanKind::EdgeMap);
  EXPECT_EQ(em.direction, 2);  // pull
  EXPECT_EQ(em.rep, 3);        // complete frontier
  EXPECT_EQ(em.variant, obs::KernelVariant::Complete);
  EXPECT_EQ(em.a, static_cast<std::uint64_t>(g.num_vertices()));
  EXPECT_EQ(em.b, g.num_edges());  // complete frontier: out-edges == m
  EXPECT_EQ(em.c, eng.dense_threshold());
  EXPECT_GT(em.d, 0u);  // dense chunk count
  EXPECT_EQ(em.flags & 0x4, 0x4);  // forced: the caller chose Pull
  const Span& ef = t.spans[1];
  EXPECT_EQ(ef.kind, SpanKind::EdgeFold);
  EXPECT_EQ(ef.variant, obs::KernelVariant::Fold);
  EXPECT_EQ(ef.flags, 0);  // span flags are edge_map's alone
  const Span& auto_step = t.spans[2];
  EXPECT_EQ(auto_step.kind, SpanKind::EdgeMap);
  EXPECT_EQ(auto_step.flags & 0x4, 0);  // Auto: the heuristic chose
}

TEST(Tracer, ChromeExportValidatesAndNamesSpans) {
  ThreadTrace tt;
  {
    SpanScope s(SpanKind::EdgeMap);
    if (s.live()) {
      s.span().a = 7;
      s.span().b = obs::kUnknownArg;  // must be omitted, not serialized
      s.span().direction = 1;
      s.span().rep = 1;
      s.span().flags = 4;  // forced
    }
  }
  {
    SpanScope s(SpanKind::CacheProbe);
    if (s.live()) s.span().a = 1;
  }
  const Trace t = tt.finish();
  const std::string json = to_chrome_trace_json(t);
  std::size_t x_events = 0;
  validate_chrome_trace(json, &x_events);
  EXPECT_EQ(x_events, t.spans.size());
  EXPECT_NE(json.find("\"edge_map\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_probe\""), std::string::npos);
  EXPECT_NE(json.find("\"forced\":1"), std::string::npos);
  // kUnknownArg (~0) must never leak into the export as a number.
  EXPECT_EQ(json.find("18446744073709551615"), std::string::npos);
}

// ------------------------------------------------------ MetricsRegistry

TEST(Metrics, CollectorRegistrationLifecycle) {
  MetricsRegistry reg;
  auto emit_one = [](std::vector<MetricSample>& out) {
    MetricSample s;
    s.name = "from_collector";
    s.type = MetricType::Counter;
    s.value = 1;
    out.push_back(std::move(s));
  };
  auto r1 = reg.add_collector(emit_one);
  EXPECT_TRUE(r1.active());
  EXPECT_EQ(reg.collect().size(), 1u);
  {
    auto r2 = reg.add_collector(emit_one);
    EXPECT_EQ(reg.collect().size(), 2u);
  }  // r2 deregisters on destruction
  EXPECT_EQ(reg.collect().size(), 1u);
  MetricsRegistry::Registration moved = std::move(r1);
  EXPECT_FALSE(r1.active());  // NOLINT(bugprone-use-after-move): tested
  EXPECT_TRUE(moved.active());
  EXPECT_EQ(reg.collect().size(), 1u);
  moved.release();
  EXPECT_FALSE(moved.active());
  EXPECT_EQ(reg.collect().size(), 0u);
  moved.release();  // idempotent
}

TEST(Metrics, PrometheusTextFormat) {
  MetricsRegistry reg;
  auto r = reg.add_collector([](std::vector<MetricSample>& out) {
    MetricSample c;
    c.name = "vebo_test_total";
    c.help = "a counter";
    c.type = MetricType::Counter;
    c.value = 3;
    out.push_back(std::move(c));
    MetricSample s;
    s.name = "vebo_labeled";
    s.help = "labeled sample";
    s.type = MetricType::Gauge;
    s.labels = {{"algo", "PR"}, {"tricky", "a\\b\"c\nd"}};
    s.value = 1.5;
    out.push_back(std::move(s));
  });
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP vebo_test_total a counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vebo_test_total counter"), std::string::npos);
  EXPECT_NE(text.find("vebo_test_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vebo_labeled gauge"), std::string::npos);
  // Label values escape backslash, quote and newline per the text format.
  EXPECT_NE(
      text.find("vebo_labeled{algo=\"PR\",tricky=\"a\\\\b\\\"c\\nd\"} 1.5"),
      std::string::npos);
}

// ------------------------------------------- traced query end-to-end

std::shared_ptr<const Graph> make_graph(int scale, int deg,
                                        std::uint64_t seed) {
  return std::make_shared<const Graph>(gen::rmat(scale, deg, seed));
}

/// The serve-stage spans of a traced query, in stage order, tile its
/// latency: each starts where the previous one ends, and their
/// durations sum to latency_ms.
void expect_stages_tile_latency(const QueryResult& res,
                                const std::vector<SpanKind>& want) {
  ASSERT_NE(res.trace, nullptr);
  std::vector<Span> stages;
  for (const Span& s : res.trace->spans)
    if (s.kind == SpanKind::QueueWait || s.kind == SpanKind::CacheProbe ||
        s.kind == SpanKind::EngineLease || s.kind == SpanKind::Execute ||
        s.kind == SpanKind::Translate)
      stages.push_back(s);
  std::vector<SpanKind> kinds;
  for (const Span& s : stages) kinds.push_back(s.kind);
  ASSERT_EQ(kinds, want);
  std::uint64_t sum_ns = 0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(stages[i].start_ns,
                stages[i - 1].start_ns + stages[i - 1].dur_ns)
          << "gap or overlap before " << obs::to_string(stages[i].kind);
    }
    sum_ns += stages[i].dur_ns;
  }
  EXPECT_NEAR(static_cast<double>(sum_ns) / 1e6, res.latency_ms, 1e-3);
}

TEST(TracedQuery, PageRankTraceCoversServeAndFrameworkStages) {
  SnapshotStore store;
  StreamSession session(*make_graph(9, 6, 21));
  GraphServiceOptions opts;
  opts.workers = 2;
  GraphService service(store, opts);
  service.publish_session(session);

  Query q;
  q.algo = "PR";
  q.trace = true;
  const QueryResult res = service.query(q);

  ASSERT_NE(res.trace, nullptr);
  const Trace& t = *res.trace;
  ASSERT_FALSE(t.spans.empty());
  EXPECT_EQ(t.dropped, 0u);

  std::set<SpanKind> kinds;
  for (const Span& s : t.spans) kinds.insert(s.kind);
  // The acceptance bar: >= 6 distinct span kinds in one traced query.
  EXPECT_GE(kinds.size(), 6u);
  EXPECT_TRUE(kinds.count(SpanKind::QueueWait));
  EXPECT_TRUE(kinds.count(SpanKind::CacheProbe));
  EXPECT_TRUE(kinds.count(SpanKind::EngineLease));
  EXPECT_TRUE(kinds.count(SpanKind::Execute));
  EXPECT_TRUE(kinds.count(SpanKind::Iteration));
  // PR runs on edge_fold under the hood.
  EXPECT_TRUE(kinds.count(SpanKind::EdgeFold));

  // A miss: the five serve stages tile submit-to-completion exactly.
  expect_stages_tile_latency(
      res, {SpanKind::QueueWait, SpanKind::CacheProbe, SpanKind::EngineLease,
            SpanKind::Execute, SpanKind::Translate});

  // Every gather step of the served query records its decision inputs:
  // the fold kernel, the dense threshold and the dense range count.
  for (const Span& s : t.spans) {
    if (s.kind != SpanKind::EdgeFold) continue;
    EXPECT_EQ(s.variant, obs::KernelVariant::Fold);
    EXPECT_EQ(s.flags, 0);
    EXPECT_GT(s.c, 0u);             // dense threshold
    EXPECT_GE(s.d, 1u);             // dense range count
  }

  // Untraced queries do not carry a trace.
  q.trace = false;
  EXPECT_EQ(service.query(q).trace, nullptr);

  // And the exported JSON passes the schema check.
  std::size_t x_events = 0;
  validate_chrome_trace(to_chrome_trace_json(t), &x_events);
  EXPECT_EQ(x_events, t.spans.size());
}

TEST(TracedQuery, CacheHitTraceMarksProbe) {
  SnapshotStore store;
  StreamSession session(*make_graph(8, 4, 5));
  GraphService service(store, {});
  service.publish_session(session);
  Query q;
  q.algo = "BFS";
  q.source = 1;
  (void)service.query(q);  // warm the cache
  q.trace = true;
  const QueryResult res = service.query(q);
  EXPECT_TRUE(res.cache_hit);
  ASSERT_NE(res.trace, nullptr);
  bool probe_hit = false;
  for (const Span& s : res.trace->spans)
    if (s.kind == SpanKind::CacheProbe && s.a == 1) probe_hit = true;
  EXPECT_TRUE(probe_hit);
  // A cache hit never reaches the engine, and its two stages tile its
  // latency.
  expect_stages_tile_latency(res, {SpanKind::QueueWait, SpanKind::CacheProbe});
}

// Arming an opt-in trace must not bill a ring fill to the stage it is
// armed in. A traced hit's CacheProbe does a subset of an untraced
// hit's work plus the arming, so it stays in the range of a whole
// untraced hit; filling a 32k-span (2 MiB) ring up front put it at ~4x.
TEST(TracedQuery, TracedHitProbeCostsNoRingFill) {
  SnapshotStore store;
  StreamSession session(*make_graph(9, 6, 21));
  GraphServiceOptions opts;
  opts.workers = 1;
  GraphService service(store, opts);
  service.publish_session(session);
  Query q;
  q.algo = "PR";
  (void)service.query(q);  // warm the cache

  std::vector<double> untraced_ms, probe_ms;
  for (int i = 0; i < 21; ++i) {
    q.trace = false;
    untraced_ms.push_back(service.query(q).latency_ms);
    q.trace = true;
    const QueryResult r = service.query(q);
    ASSERT_TRUE(r.cache_hit);
    ASSERT_NE(r.trace, nullptr);
    for (const Span& s : r.trace->spans)
      if (s.kind == SpanKind::CacheProbe)
        probe_ms.push_back(static_cast<double>(s.dur_ns) / 1e6);
  }
  ASSERT_EQ(probe_ms.size(), 21u);
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  EXPECT_LE(median(probe_ms), 2.0 * median(untraced_ms));
}

// A tail-sampled keeper (a query NOBODY traced) and a flight-recorder
// dump both export as schema-valid Chrome trace-event JSON — the same
// bar the opt-in trace export is held to.
TEST(TracedQuery, AutoCapturedTraceAndFlightDumpValidateAsChromeJson) {
  // Zero min-span floor: this test's spans are microsecond-scale and
  // the dump must contain them.
  obs::RecorderOptions ro;
  ro.min_span_ns = 0;
  obs::FlightRecorder::instance().arm(ro);
  SnapshotStore store;
  StreamSession session(*make_graph(8, 4, 6));
  GraphServiceOptions opts;
  opts.workers = 2;
  GraphService service(store, opts);
  service.publish_session(session);

  // A failing query is always kept by tail sampling — no threshold
  // warm-up, no Query::trace.
  Query bad;
  bad.algo = "NOPE";
  EXPECT_THROW((void)service.query(bad), serve::ServiceError);
  ASSERT_EQ(service.trace_store().size(), 1u);
  const obs::CapturedTrace ct = service.trace_store().recent().front();
  EXPECT_EQ(ct.reason, "error:bad-request");
  std::size_t x_events = 0;
  validate_chrome_trace(obs::to_chrome_trace_json(ct.trace), &x_events);
  EXPECT_EQ(x_events, ct.trace.spans.size());

  const obs::FlightDump dump = obs::FlightRecorder::instance().dump("test");
  obs::FlightRecorder::instance().disarm();
  ASSERT_FALSE(dump.spans.empty());  // the worker's stage spans landed
  validate_chrome_trace(obs::to_chrome_trace_json(dump), &x_events);
  EXPECT_EQ(x_events, dump.spans.size());
}

// ------------------------------------------------- exposition pinning

// Every pre-existing stat must be reachable through the registry: the
// full GraphServiceStats ledger (incl. errors_by_code), cache, pool and
// snapshot-store counters, the latency summary, and the stream session's
// batch/rebalance counters.
TEST(MetricsPlane, EveryServiceStatIsExposed) {
  MetricsRegistry reg;
  SnapshotStore store;
  StreamSession session(*make_graph(8, 4, 9));
  GraphServiceOptions opts;
  opts.workers = 2;
  opts.metrics = &reg;
  GraphService service(store, opts);
  service.publish_session(session);

  Query ok;
  ok.algo = "PR";
  (void)service.query(ok);
  (void)service.query(ok);  // cache hit
  Query bad;
  bad.algo = "NOPE";
  EXPECT_THROW((void)service.query(bad), serve::ServiceError);

  const std::string text = reg.prometheus_text();
  for (const char* name : {
           "vebo_service_submitted_total", "vebo_service_rejected_total",
           "vebo_service_completed_total", "vebo_service_failed_total",
           "vebo_service_in_flight",
           "vebo_service_shed_total{reason=\"deadline\"}",
           "vebo_service_shed_total{reason=\"cancelled\"}",
           "vebo_cache_hits_total", "vebo_cache_invalidations_total",
           "vebo_cache_refreshes_total",
           "vebo_cache_evictions_total", "vebo_cache_entries",
           "vebo_pool_engines_created_total",
           "vebo_pool_leases_total", "vebo_pool_rebinds_total",
           "vebo_pool_waits_total", "vebo_snapshots_published_total",
           "vebo_snapshots_reclaimed_total", "vebo_snapshots_live",
           "vebo_service_latency_ms{quantile=\"0.5\"}",
           "vebo_service_latency_ms{quantile=\"0.95\"}",
           "vebo_service_latency_ms{quantile=\"0.99\"}",
           "vebo_service_latency_ms_sum", "vebo_service_latency_ms_count",
       })
    EXPECT_NE(text.find(name), std::string::npos) << name;
  // errors_by_code: one labeled sample per ErrorCode value.
  for (std::size_t i = 0; i < serve::kNumErrorCodes; ++i) {
    const std::string labeled =
        std::string("vebo_service_errors_total{code=\"") +
        serve::to_string(static_cast<serve::ErrorCode>(i)) + "\"}";
    EXPECT_NE(text.find(labeled), std::string::npos) << labeled;
  }
  // PR 8 window/SLO/sampling additions ride alongside: the cumulative
  // names above are pinned UNCHANGED; the sliding-window view gets its
  // own `_window`-suffixed series plus the SLO and trace-store gauges.
  for (const char* name : {
           "vebo_service_qps_window", "vebo_service_error_rate_window",
           "vebo_service_window_samples",
           "vebo_service_latency_ms_window{quantile=\"0.5\"}",
           "vebo_service_latency_ms_window{quantile=\"0.95\"}",
           "vebo_service_latency_ms_window{quantile=\"0.99\"}",
           "vebo_algo_latency_ms_window{algo=\"PR\",quantile=\"0.5\"}",
           "vebo_algo_latency_ms_window{algo=\"PR\",quantile=\"0.99\"}",
           "vebo_slo_availability_window", "vebo_slo_burn_rate",
           "vebo_traces_captured_total",
           "vebo_traces_stored", "vebo_recorder_dumps_total",
       })
    EXPECT_NE(text.find(name), std::string::npos) << name;
  for (std::size_t i = 0; i < serve::kNumErrorCodes; ++i) {
    const std::string labeled =
        std::string("vebo_service_errors_window{code=\"") +
        serve::to_string(static_cast<serve::ErrorCode>(i)) + "\"}";
    EXPECT_NE(text.find(labeled), std::string::npos) << labeled;
  }
  // The window saw this test's queries (2 ok + 1 failed, just now).
  EXPECT_NE(text.find("vebo_service_window_samples 3"), std::string::npos);

  // Values track the stats() surface exactly.
  const serve::GraphServiceStats st = service.stats();
  EXPECT_NE(
      text.find("vebo_service_submitted_total " +
                std::to_string(st.submitted)),
      std::string::npos);
  EXPECT_NE(text.find("vebo_service_errors_total{code=\"bad-request\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("vebo_cache_hits_total 1"), std::string::npos);
}

// PR 10: the refresh-on-publish counters ride the same exposition — the
// cumulative refresh counter plus the per-algorithm hook-latency pair.
TEST(MetricsPlane, RefreshMetricsAreExposed) {
  MetricsRegistry reg;
  SnapshotStore store;
  StreamSession session(*make_graph(8, 4, 17));
  GraphServiceOptions opts;
  opts.workers = 1;
  opts.metrics = &reg;
  opts.refresh_on_publish = true;
  opts.refresh_max_delta_fraction = 1.0;
  GraphService service(store, opts);
  service.publish_session(session);

  Query q;
  q.algo = "CC";
  q.result = serve::ResultKind::Payload;
  (void)service.query(q);
  session.apply(std::vector<stream::EdgeUpdate>{
      stream::EdgeUpdate::insert(1, 3)});
  service.publish_session(session);  // refreshes the cached CC entry

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("vebo_cache_refreshes_total 1"), std::string::npos);
  EXPECT_NE(
      text.find("vebo_cache_refresh_latency_ms_count{algo=\"CC\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("vebo_cache_refresh_latency_ms_sum{algo=\"CC\"}"),
            std::string::npos);
}

// The Publish span says what its refresh did, so a publish-stall
// flight-recorder dump explains itself: b = entries refreshed into the
// new epoch, c = entries dropped, exported as "refreshed" / "dropped".
TEST(TracedPublish, CountsRefreshedAndDroppedEntries) {
  SnapshotStore store;
  StreamSession session(*make_graph(8, 4, 17));
  GraphServiceOptions opts;
  opts.workers = 1;
  opts.refresh_on_publish = true;
  opts.refresh_max_delta_fraction = 1.0;
  GraphService service(store, opts);
  service.publish_session(session);
  // CC has a refresh hook; SPMV has none, so the publish drops it.
  for (const char* code : {"CC", "SPMV"}) {
    Query q;
    q.algo = code;
    q.result = serve::ResultKind::Payload;
    (void)service.query(q);
  }
  session.apply(std::vector<stream::EdgeUpdate>{
      stream::EdgeUpdate::insert(1, 3)});
  Trace t;
  {
    ThreadTrace tt;
    service.publish_session(session);
    t = tt.finish();
  }
  const auto publish = std::ranges::find_if(
      t.spans, [](const Span& s) { return s.kind == SpanKind::Publish; });
  ASSERT_NE(publish, t.spans.end());
  EXPECT_EQ(publish->a, service.store().version());
  EXPECT_EQ(publish->b, 1u);
  EXPECT_EQ(publish->c, 1u);

  const JsonValue root = JsonParser(to_chrome_trace_json(t)).parse();
  const JsonValue* args = nullptr;
  for (const JsonValue& e : root.find("traceEvents")->array())
    if (e.find("name") != nullptr && e.find("name")->str() == "publish")
      args = e.find("args");
  ASSERT_NE(args, nullptr);
  ASSERT_NE(args->find("refreshed"), nullptr);
  ASSERT_NE(args->find("dropped"), nullptr);
  EXPECT_EQ(args->find("refreshed")->number(), 1.0);
  EXPECT_EQ(args->find("dropped")->number(), 1.0);
}

// The Rebalance span records the drift check's inputs and outcome:
// a = 1 when it re-ran VEBO, b = Δ and c = δ as the check read them,
// exported as "action" / "edge_imbalance" / "vertex_imbalance".
TEST(TracedRebalance, SpanRecordsTheDriftCheck) {
  // A directed 8-cycle: every in-degree is 1, so VEBO at P = 2 puts four
  // vertices and four in-edges on each side (Δ₀ = δ₀ = 0), and both drift
  // bounds are max(1, 0.1 · 8 / 2) = 1.
  std::vector<Edge> cycle;
  for (VertexId v = 0; v < 8; ++v) cycle.push_back({v, (v + 1) % 8});
  stream::SessionOptions opts;
  opts.rebalance.partitions = 2;
  StreamSession session(Graph::from_edges(EdgeList(8, cycle, true)), opts);

  Trace t;
  {
    ThreadTrace tt;
    // Vertex 2 gains one in-edge: Δ = 1, within the bound.
    EXPECT_EQ(session
                  .apply(std::vector<stream::EdgeUpdate>{
                      stream::EdgeUpdate::insert(0, 2)})
                  .rebalance,
              stream::RebalanceAction::None);
    // Two more: Δ = 3 crosses it, and the maintainer re-runs VEBO.
    EXPECT_EQ(session
                  .apply(std::vector<stream::EdgeUpdate>{
                      stream::EdgeUpdate::insert(3, 2),
                      stream::EdgeUpdate::insert(4, 2)})
                  .rebalance,
              stream::RebalanceAction::Full);
    t = tt.finish();
  }
  std::vector<Span> checks;
  for (const Span& s : t.spans)
    if (s.kind == SpanKind::Rebalance) checks.push_back(s);
  ASSERT_EQ(checks.size(), 2u);
  EXPECT_EQ(checks[0].a, 0u);
  EXPECT_EQ(checks[0].b, 1u);
  EXPECT_EQ(checks[0].c, 0u);
  EXPECT_EQ(checks[1].a, 1u);
  EXPECT_EQ(checks[1].b, 3u);
  EXPECT_EQ(checks[1].c, 0u);

  const JsonValue root = JsonParser(to_chrome_trace_json(t)).parse();
  std::vector<const JsonValue*> args;
  for (const JsonValue& e : root.find("traceEvents")->array())
    if (e.find("name") != nullptr && e.find("name")->str() == "rebalance")
      args.push_back(e.find("args"));
  ASSERT_EQ(args.size(), 2u);
  const char* actions[] = {"none", "full"};
  const double edge_imbalance[] = {1.0, 3.0};
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_NE(args[i], nullptr);
    ASSERT_NE(args[i]->find("action"), nullptr);
    ASSERT_NE(args[i]->find("edge_imbalance"), nullptr);
    ASSERT_NE(args[i]->find("vertex_imbalance"), nullptr);
    EXPECT_EQ(args[i]->find("action")->str(), actions[i]);
    EXPECT_EQ(args[i]->find("edge_imbalance")->number(), edge_imbalance[i]);
    EXPECT_EQ(args[i]->find("vertex_imbalance")->number(), 0.0);
  }
}

TEST(MetricsPlane, StreamSessionStatsAreExposed) {
  MetricsRegistry reg;
  stream::SessionOptions sopts;
  sopts.metrics = &reg;
  StreamSession session(*make_graph(8, 4, 13), sopts);
  Xoshiro256 rng(3);
  std::vector<stream::EdgeUpdate> batch;
  for (int i = 0; i < 64; ++i)
    batch.push_back(stream::EdgeUpdate::insert(
        static_cast<VertexId>(rng.next_below(256)),
        static_cast<VertexId>(rng.next_below(256))));
  session.apply(batch);
  (void)session.query("CC");

  const std::string text = reg.prometheus_text();
  for (const char* name : {
           "vebo_stream_batches_total", "vebo_stream_inserted_total",
           "vebo_stream_removed_total", "vebo_stream_queries_total",
           "vebo_stream_snapshots_total",
           "vebo_stream_snapshots_patched_total",
           "vebo_stream_compactions_total",
           "vebo_rebalance_batches_observed_total",
           "vebo_rebalance_full_total", "vebo_rebalance_edge_imbalance",
           "vebo_rebalance_vertex_imbalance",
       })
    EXPECT_NE(text.find(name), std::string::npos) << name;
  EXPECT_NE(text.find("vebo_stream_batches_total 1"), std::string::npos);
  EXPECT_NE(text.find("vebo_stream_queries_total 1"), std::string::npos);
}

TEST(MetricsPlane, RegistrationOutlivesScrapeSafely) {
  MetricsRegistry reg;
  {
    SnapshotStore store;
    StreamSession session(*make_graph(7, 4, 2));
    GraphServiceOptions opts;
    opts.metrics = &reg;
    GraphService service(store, opts);
    service.publish_session(session);
    Query q;
    q.algo = "CC";
    (void)service.query(q);
    EXPECT_NE(reg.prometheus_text().find("vebo_service_submitted_total 1"),
              std::string::npos);
  }  // service destroyed: its collector must be gone, not dangling
  EXPECT_EQ(reg.collect().size(), 0u);
  EXPECT_EQ(reg.prometheus_text().find("vebo_service_submitted_total"),
            std::string::npos);
}

// ----------------------------------------------------- ledger invariant

// stats() snapshots must satisfy submitted == completed + failed +
// rejected + in_flight at EVERY instant, not eventually: an observer
// hammers the invariant while clients race submissions through a tiny
// queue (forcing accepts, rejections, completions and failures to
// interleave). The clients start only after the observer's first check,
// so a loaded scheduler cannot finish the storm before it observes.
TEST(LedgerInvariant, HoldsUnderConcurrentObservation) {
  SnapshotStore store;
  StreamSession session(*make_graph(9, 6, 31));
  GraphServiceOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 4;  // tiny: rejections are common
  opts.cache_capacity = 0;  // uncached: every query executes
  GraphService service(store, opts);
  service.publish_session(session);

  // One guaranteed failure up front (the storm's BadRequest submits can
  // all be unlucky enough to get rejected instead).
  Query bad;
  bad.algo = "NOPE";
  EXPECT_THROW((void)service.query(bad), serve::ServiceError);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> checks{0};
  std::atomic<std::uint64_t> violations{0};
  std::thread observer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const serve::GraphServiceStats st = service.stats();
      ++checks;
      if (st.submitted !=
          st.completed + st.failed + st.rejected + st.in_flight)
        ++violations;
    }
  });
  while (checks.load() == 0) std::this_thread::yield();

  constexpr int kClients = 4;
  constexpr int kPerClient = 60;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&service, c] {
      std::vector<std::future<QueryResult>> pending;
      for (int i = 0; i < kPerClient; ++i) {
        Query q;
        // Mix successes with BadRequest failures so `failed` moves too.
        q.algo = (i % 7 == 0) ? "NOPE" : (c % 2 == 0 ? "BFS" : "CC");
        q.source = static_cast<VertexId>(i % 100);
        auto sub = service.submit(std::move(q));
        if (sub.accepted()) pending.push_back(std::move(sub.result));
      }
      for (auto& f : pending) {
        try {
          (void)f.get();
        } catch (const serve::ServiceError&) {
        }
      }
    });
  for (auto& t : clients) t.join();
  done = true;
  observer.join();

  EXPECT_GT(checks.load(), 100u);  // the observer actually observed
  EXPECT_EQ(violations.load(), 0u);

  // Settled state: everything accepted has been decided.
  service.stop();
  const serve::GraphServiceStats st = service.stats();
  EXPECT_EQ(st.in_flight, 0u);
  EXPECT_EQ(st.submitted, st.completed + st.failed + st.rejected);
  EXPECT_GT(st.completed, 0u);
  EXPECT_GT(st.failed, 0u);
}

}  // namespace
}  // namespace vebo
