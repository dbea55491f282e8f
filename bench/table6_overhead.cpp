// Regenerates the paper's Table VI: the cost of graph preparation —
// vertex reordering (RCM vs Gorder vs VEBO), edge reordering +
// partitioning (Hilbert order vs CSR order), and the resulting BFS and
// PR (50 iterations) execution times, Original vs VEBO.
//
// Implemented with google-benchmark so each phase gets statistically
// robust timing. Expected shape: VEBO is orders of magnitude cheaper
// than RCM and Gorder (the paper reports 101x and 1524x), CSR edge
// ordering is ~2.5x cheaper than Hilbert ordering, and PR gains more
// than enough to amortize the reordering.
#include <benchmark/benchmark.h>

#include "algorithms/registry.hpp"
#include "bench_common.hpp"
#include "framework/coo_iter.hpp"
#include "framework/engine.hpp"
#include "order/hilbert.hpp"

using namespace vebo;

namespace {

const Graph& dataset(const std::string& name) {
  static std::map<std::string, Graph> cache;
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache.emplace(name, gen::make_dataset(name, bench::bench_scale(), 42))
             .first;
  return it->second;
}

const Graph& vebo_graph(const std::string& name) {
  static std::map<std::string, Graph> cache;
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache
             .emplace(name, order::vebo_reorder(dataset(name),
                                                bench::kPaperPartitions))
             .first;
  return it->second;
}

constexpr const char* kGraphs[] = {"twitter", "friendster"};

// ------------------------------ vertex reordering -----------------------

void BM_Reorder_RCM(benchmark::State& state) {
  const Graph& g = dataset(kGraphs[state.range(0)]);
  for (auto _ : state) benchmark::DoNotOptimize(order::rcm(g));
  state.SetLabel(kGraphs[state.range(0)]);
}
BENCHMARK(BM_Reorder_RCM)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Reorder_Gorder(benchmark::State& state) {
  const Graph& g = dataset(kGraphs[state.range(0)]);
  for (auto _ : state) benchmark::DoNotOptimize(order::gorder(g));
  state.SetLabel(kGraphs[state.range(0)]);
}
BENCHMARK(BM_Reorder_Gorder)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Reorder_VEBO(benchmark::State& state) {
  const Graph& g = dataset(kGraphs[state.range(0)]);
  for (auto _ : state)
    benchmark::DoNotOptimize(order::vebo(g, bench::kPaperPartitions));
  state.SetLabel(kGraphs[state.range(0)]);
}
BENCHMARK(BM_Reorder_VEBO)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --------------------- edge reordering + partitioning -------------------

void BM_EdgeOrder_Hilbert(benchmark::State& state) {
  const Graph& g = vebo_graph(kGraphs[state.range(0)]);
  const auto part =
      order::partition_by_destination(g, bench::kPaperPartitions);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        build_partitioned_coo(g, part, EdgeOrder::Hilbert));
  state.SetLabel(kGraphs[state.range(0)]);
}
BENCHMARK(BM_EdgeOrder_Hilbert)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EdgeOrder_CSR(benchmark::State& state) {
  const Graph& g = vebo_graph(kGraphs[state.range(0)]);
  const auto part =
      order::partition_by_destination(g, bench::kPaperPartitions);
  for (auto _ : state)
    benchmark::DoNotOptimize(build_partitioned_coo(g, part, EdgeOrder::Csr));
  state.SetLabel(kGraphs[state.range(0)]);
}
BENCHMARK(BM_EdgeOrder_CSR)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EdgeOrder_CSC(benchmark::State& state) {
  const Graph& g = vebo_graph(kGraphs[state.range(0)]);
  const auto part =
      order::partition_by_destination(g, bench::kPaperPartitions);
  for (auto _ : state)
    benchmark::DoNotOptimize(build_partitioned_coo(g, part, EdgeOrder::Csc));
  state.SetLabel(kGraphs[state.range(0)]);
}
BENCHMARK(BM_EdgeOrder_CSC)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ------------------------------ execution -------------------------------

void BM_BFS(benchmark::State& state) {
  const bool vebo_order = state.range(1) != 0;
  const Graph& g = vebo_order ? vebo_graph(kGraphs[state.range(0)])
                              : dataset(kGraphs[state.range(0)]);
  Engine eng(g, SystemModel::GraphGrind,
             {.partitions = bench::kPaperPartitions});
  // Highest out-degree vertex as source (stays in the giant component).
  VertexId src = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (g.out_degree(v) > g.out_degree(src)) src = v;
  const algo::QueryParams from = algo::QueryParams().set("source", src);
  for (auto _ : state)
    benchmark::DoNotOptimize(algo::spec("BFS").invoke(eng, from));
  state.SetLabel(std::string(kGraphs[state.range(0)]) +
                 (vebo_order ? "/VEBO" : "/Orig"));
}
BENCHMARK(BM_BFS)
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

void BM_PR50(benchmark::State& state) {
  const bool vebo_order = state.range(1) != 0;
  const Graph& g = vebo_order ? vebo_graph(kGraphs[state.range(0)])
                              : dataset(kGraphs[state.range(0)]);
  Engine eng(g, SystemModel::GraphGrind,
             {.partitions = bench::kPaperPartitions});
  const algo::QueryParams fifty = algo::QueryParams().set("iterations", 50);
  for (auto _ : state)
    benchmark::DoNotOptimize(algo::spec("PR").invoke(eng, fifty));
  state.SetLabel(std::string(kGraphs[state.range(0)]) +
                 (vebo_order ? "/VEBO" : "/Orig"));
}
BENCHMARK(BM_PR50)
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Table VI: reordering overhead vs execution gain");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::cout << "\nPaper reference: VEBO reordering is 101x cheaper than\n"
               "RCM and 1524x cheaper than Gorder; CSR edge order is ~2.5x\n"
               "cheaper to build than Hilbert order; PR(50 iters) gains\n"
               "amortize the preparation cost.\n";
  return 0;
}
