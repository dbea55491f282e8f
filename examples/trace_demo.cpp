// Observability demo: a writer streaming batches, clients querying, ONE
// traced query — and the PR 8 always-on plane catching a slow query
// nobody opted into tracing.
//
// The service and the stream session both register on one
// MetricsRegistry, so a single scrape shows the whole system: the
// serving ledger (submitted/completed/failed/rejected/in_flight,
// errors by code), cache and engine-pool behavior, snapshot epochs, the
// maintainer's rebalance counters, and the PR 8 *_window gauges + SLO
// burn rates. One client opts a PageRank query into tracing
// (Query::trace): its result carries the full execution trace — dumped
// as Chrome trace-event JSON (trace_demo.json).
//
// Then the always-on part: the flight recorder is armed for the whole
// run, the clients keep querying until the window holds enough answers
// to set the rolling p99-based keep threshold, and then one UNTRACED
// query is deliberately stalled through the fault injector for twice
// that threshold (at least 40ms). Tail sampling keeps it automatically,
// its forensic trace lands in service.trace_store() with zero opt-in
// (trace_demo_slow.json), and an explicit flight-recorder dump freezes
// the last seconds of every worker into trace_demo_flight.json. The
// health() readout prints the window view and the SLO burn rate.
//
// Exits 1 when the traced query carries no trace, the stalled query is
// not captured, or the flight dump is empty.
//
//   ./example_trace_demo [batches=6] [batch_size=1500] [clients=4]
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <thread>
#include <vector>

#include "gen/datasets.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "serve/graph_service.hpp"
#include "stream/session.hpp"
#include "support/fault.hpp"
#include "support/prng.hpp"

using namespace vebo;
using serve::GraphService;
using serve::GraphServiceOptions;
using serve::Query;
using serve::QueryResult;
using serve::SnapshotStore;
using stream::EdgeUpdate;

int main(int argc, char** argv) {
  const int batches = argc > 1 ? std::atoi(argv[1]) : 6;
  const int batch_size = argc > 2 ? std::atoi(argv[2]) : 1500;
  const int clients = argc > 3 ? std::atoi(argv[3]) : 4;

  const Graph start = gen::make_dataset("orkut", 0.125, /*seed=*/7);
  std::cout << start.describe("start") << "\n";
  const VertexId n = start.num_vertices();

  // One registry for the whole system: the session's collector and the
  // service's collector land in the same exposition.
  obs::MetricsRegistry registry;

  // The black box flies armed for the entire run: every serve/stream
  // stage span from every thread lands in per-thread rings holding the
  // last few seconds, exported only when something asks.
  obs::FlightRecorder::instance().arm();

  stream::SessionOptions sopts;
  sopts.model = SystemModel::Polymer;
  sopts.metrics = &registry;
  stream::StreamSession session(start, sopts);

  SnapshotStore store;
  GraphServiceOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 128;
  opts.engine.model = SystemModel::Polymer;
  opts.metrics = &registry;
  GraphService service(store, opts);
  service.publish_session(session);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};

  std::thread writer([&] {
    Xoshiro256 rng(2026);
    for (int b = 0; b < batches; ++b) {
      std::vector<EdgeUpdate> batch;
      for (int i = 0; i < batch_size; ++i)
        batch.push_back(EdgeUpdate::insert(
            static_cast<VertexId>(rng.next_below(n)),
            static_cast<VertexId>(rng.next_below(n))));
      session.apply(batch);
      const std::uint64_t v = service.publish_session(session);
      std::cout << "[writer] epoch " << v << "\n";
    }
    done.store(true, std::memory_order_release);
  });

  // The readers outlast the writer until the window holds enough
  // answers for the service to set its slow-keep threshold.
  const std::uint64_t min_answers = opts.telemetry.keep_min_samples;
  std::vector<std::thread> readers;
  for (int c = 0; c < clients; ++c)
    readers.emplace_back([&, c] {
      Xoshiro256 rng(100 + c);
      const char* algos[] = {"BFS", "CC", "PR"};
      while (!done.load(std::memory_order_acquire) ||
             answered.load() < min_answers) {
        Query q;
        q.algo = algos[rng.next_below(3)];
        q.source = static_cast<VertexId>(rng.next_below(8));
        try {
          service.query(q);
          answered.fetch_add(1);
        } catch (const serve::ServiceError&) {
        }
      }
    });
  writer.join();
  for (auto& t : readers) t.join();

  // The one traced query: PageRank with the execution trace attached.
  Query traced;
  traced.algo = "PR";
  traced.trace = true;
  const QueryResult res = service.query(traced);
  std::cout << "\n" << answered.load() << " untraced queries answered; "
            << "traced PR checksum=" << res.value << " on epoch "
            << res.version << "\n";

  if (res.trace == nullptr) {
    std::cout << "traced query returned no trace\n";
    return 1;
  }
  {
    std::set<obs::SpanKind> kinds;
    for (const obs::Span& s : res.trace->spans) kinds.insert(s.kind);
    std::cout << "trace " << res.trace->id << ": "
              << res.trace->spans.size() << " spans across "
              << kinds.size() << " kinds (";
    bool first = true;
    for (obs::SpanKind k : kinds) {
      std::cout << (first ? "" : ", ") << obs::to_string(k);
      first = false;
    }
    std::cout << ")\n";
    std::ofstream f("trace_demo.json");
    f << obs::to_chrome_trace_json(*res.trace) << "\n";
    std::cout << "Wrote trace_demo.json — open in Perfetto "
                 "(ui.perfetto.dev) or chrome://tracing\n";
  }

  // ---- PR 8: the always-on plane catches a slow query on its own. ----
  // Stall ONE untraced query through the fault injector (the only
  // in-flight query, so rate 1.0 hits exactly it) for twice the rolling
  // keep threshold, and at least 40ms. No query settles between this
  // read and the stalled one's keep decision, so the threshold holds.
  // Tail sampling has been ring-recording every query all along; this
  // one blows past the threshold and is persisted with zero opt-in.
  const double keep_ms = service.health().slow_keep_threshold_ms;
  const double stall_ms = std::max(40.0, 2 * keep_ms);
  const std::uint64_t captured_before = service.trace_store().captured();
  FaultInjector::instance().arm(FaultInjector::Hook::WorkerStall,
                                /*rate=*/1.0,
                                static_cast<std::uint64_t>(stall_ms * 1000));
  Query stalled;
  stalled.algo = "PR";
  service.query(stalled);  // no Query::trace — capture is automatic
  FaultInjector::instance().disarm_all();

  const serve::ServiceHealth h = service.health();
  std::cout << "\nalways-on telemetry after the storm:\n"
            << "  window: " << h.window_samples << " samples, "
            << h.window_qps << " qps, error rate " << h.window_error_rate
            << ", p50/p95/p99 = " << h.window_p50_ms << "/" << h.window_p95_ms
            << "/" << h.window_p99_ms << " ms\n"
            << "  slo: availability " << h.availability << ", burn rate "
            << h.burn_rate << (h.slo_healthy ? " (healthy)" : " (BURNING)")
            << "\n"
            << "  tail sampling: " << h.traces_captured
            << " traces kept, slow-keep threshold "
            << h.slow_keep_threshold_ms << " ms, stall " << stall_ms
            << " ms\n";

  const bool captured = service.trace_store().captured() > captured_before;
  if (captured) {
    const std::vector<obs::CapturedTrace> kept = service.trace_store().recent();
    const obs::CapturedTrace& ct = kept.back();
    std::cout << "auto-captured " << ct.trace.spans.size() << "-span trace #"
              << ct.seq << ": algo=" << ct.algo << " reason=" << ct.reason
              << " latency=" << ct.latency_ms << "ms\n";
    std::ofstream f("trace_demo_slow.json");
    f << obs::to_chrome_trace_json(ct.trace) << "\n";
    std::cout << "Wrote trace_demo_slow.json — the stalled query's "
                 "forensics, no opt-in\n";
  } else {
    std::cout << "stalled query was NOT captured (threshold " << keep_ms
              << " ms before the stall)\n";
  }

  // Freeze the black box: every stage span from the last few seconds,
  // all threads on one timeline.
  const obs::FlightDump dump = obs::FlightRecorder::instance().dump("demo");
  std::cout << "flight recorder dump #" << dump.seq << ": " << dump.spans.size()
            << " spans across " << dump.threads << " threads ("
            << dump.dropped << " dropped to ring wrap)\n";
  {
    std::ofstream f("trace_demo_flight.json");
    f << obs::to_chrome_trace_json(dump) << "\n";
  }
  std::cout << "Wrote trace_demo_flight.json — the process's last seconds\n";
  obs::FlightRecorder::instance().disarm();

  // One scrape shows the whole system: serve ledger, cache, pool,
  // snapshots, stream/rebalance counters, window gauges, burn rates.
  const std::string text = registry.prometheus_text();
  std::ofstream m("trace_demo_metrics.txt");
  m << text;
  std::cout << "Wrote trace_demo_metrics.txt ("
            << registry.collect().size() << " samples). Excerpt:\n";
  // Print the service ledger lines as a taste of the exposition.
  std::size_t pos = 0, shown = 0;
  while (shown < 8 && pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.rfind("vebo_service_", 0) == 0 && line[13] != '\0' &&
        line.find('#') == std::string::npos) {
      std::cout << "  " << line << "\n";
      ++shown;
    }
  }
  if (dump.spans.empty()) std::cout << "flight recorder dump is empty\n";
  return captured && !dump.spans.empty() ? 0 : 1;
}
