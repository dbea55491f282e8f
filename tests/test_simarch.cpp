// Tests for the micro-architecture simulators: cache (set-assoc LRU),
// TLB, branch predictor, and the trace-driven edgemap/vertexmap models.
#include <gtest/gtest.h>

#include "gen/rmat.hpp"
#include "gen/synthetic.hpp"
#include "order/sort_order.hpp"
#include "order/vebo.hpp"
#include "graph/permute.hpp"
#include "simarch/branch.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "simarch/cache.hpp"
#include "simarch/tlb.hpp"
#include "simarch/trace.hpp"

namespace vebo {
namespace {

using simarch::BranchSim;
using simarch::CacheSim;
using simarch::TlbSim;

// ---------------------------------------------------------------- cache

TEST(Cache, HitAfterFill) {
  CacheSim c(1024, 64, 2);  // 8 sets x 2 ways
  EXPECT_FALSE(c.access(0));  // cold miss
  EXPECT_TRUE(c.access(0));   // hit
  EXPECT_TRUE(c.access(63));  // same line
  EXPECT_FALSE(c.access(64)); // next line
  EXPECT_EQ(c.misses(), 2u);
  EXPECT_EQ(c.accesses(), 4u);
}

TEST(Cache, LruEvictionWithinSet) {
  CacheSim c(1024, 64, 2);  // 8 sets; lines mapping to set 0: 0, 512, 1024...
  const std::uint64_t a = 0, b = 8 * 64, d = 16 * 64;  // all set 0
  c.access(a);
  c.access(b);
  c.access(a);     // a most recent
  c.access(d);     // evicts b (LRU)
  EXPECT_TRUE(c.access(a));
  EXPECT_FALSE(c.access(b));  // was evicted
}

TEST(Cache, SequentialStreamMissesOncePerLine) {
  CacheSim c(1u << 16, 64, 8);
  for (std::uint64_t addr = 0; addr < 4096; addr += 8) c.access(addr);
  EXPECT_EQ(c.misses(), 4096u / 64u);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  CacheSim c(4096, 64, 1);  // direct-mapped 4 KiB
  // Two addresses conflicting in every set, alternating -> all misses.
  for (int i = 0; i < 100; ++i) {
    c.access(0);
    c.access(4096);
  }
  EXPECT_EQ(c.misses(), 200u);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(CacheSim(100, 64, 2), Error);  // size not sets*ways*line
}

// ------------------------------------------------------------------ TLB

TEST(Tlb, PageGranularity) {
  TlbSim t(4, 4096);
  EXPECT_FALSE(t.access(0));
  EXPECT_TRUE(t.access(4095));   // same page
  EXPECT_FALSE(t.access(4096));  // next page
  EXPECT_EQ(t.misses(), 2u);
}

TEST(Tlb, LruEviction) {
  TlbSim t(2, 4096);
  t.access(0 * 4096);
  t.access(1 * 4096);
  t.access(0 * 4096);      // refresh page 0
  t.access(2 * 4096);      // evicts page 1
  EXPECT_TRUE(t.access(0));
  EXPECT_FALSE(t.access(1 * 4096));
}

// --------------------------------------------------------------- branch

TEST(Branch, LearnsAlwaysTaken) {
  BranchSim b;
  for (int i = 0; i < 100; ++i) b.branch(0x10, true);
  // After warmup the predictor should be nearly perfect.
  b.reset_stats();
  for (int i = 0; i < 100; ++i) b.branch(0x10, true);
  EXPECT_EQ(b.mispredictions(), 0u);
}

TEST(Branch, LearnsShortLoopPattern) {
  // Loop with constant trip count 4: T,T,T,N repeating — gshare with
  // history should learn it almost perfectly.
  BranchSim b;
  for (int rep = 0; rep < 200; ++rep)
    for (int i = 0; i < 4; ++i) b.branch(0x20, i < 3);
  b.reset_stats();
  for (int rep = 0; rep < 100; ++rep)
    for (int i = 0; i < 4; ++i) b.branch(0x20, i < 3);
  EXPECT_EQ(b.branches(), 400u);
  EXPECT_LT(b.mispredictions(), 8u);  // under 2%
}

TEST(Branch, RandomPatternMispredictsHeavily) {
  BranchSim b;
  SplitMix64 rng(3);
  for (int i = 0; i < 10000; ++i) b.branch(0x30, rng.next() & 1);
  EXPECT_EQ(b.branches(), 10000u);
  EXPECT_GT(b.mispredictions(), 3000u);  // over 30%
}

// ---------------------------------------------------------------- trace

simarch::MachineConfig tiny_machine() {
  simarch::MachineConfig cfg;
  cfg.sockets = 4;
  cfg.threads_per_socket = 2;
  cfg.cache_bytes = 1u << 15;  // 32 KiB to make misses visible
  cfg.cache_ways = 8;
  return cfg;
}

TEST(Trace, EdgemapReportsPerThreadStats) {
  const Graph g = gen::rmat(10, 8, 3);
  const auto part = order::partition_by_destination(g, 32);
  const auto rep = simarch::simulate_edgemap(g, part, tiny_machine());
  ASSERT_EQ(rep.per_thread.size(), 8u);
  std::uint64_t ops = 0;
  for (const auto& t : rep.per_thread) ops += t.ops;
  EXPECT_GT(ops, g.num_edges());  // at least one op per edge
  EXPECT_GE(rep.mean_local() + rep.mean_remote(), 0.0);
}

TEST(Trace, VertexmapTouchesEveryVertex) {
  const Graph g = gen::rmat(9, 4, 5);
  const auto part = order::partition_by_destination(g, 16);
  const auto rep = simarch::simulate_vertexmap(g, part, tiny_machine());
  std::uint64_t ops = 0;
  for (const auto& t : rep.per_thread) ops += t.ops;
  EXPECT_EQ(ops, g.num_vertices());
}

TEST(Trace, VeboReducesVertexmapRemoteMisses) {
  // Table V's key effect: with equal vertices per partition, the even
  // vertexmap split aligns with data homes -> fewer remote misses.
  const Graph g = gen::rmat(11, 8, 7);
  const auto part_orig = order::partition_by_destination(g, 32);
  const auto rep_orig =
      simarch::simulate_vertexmap(g, part_orig, tiny_machine());

  const auto r = order::vebo(g, 32);
  const Graph h = permute(g, r.perm);
  const auto rep_vebo =
      simarch::simulate_vertexmap(h, r.partitioning, tiny_machine());
  EXPECT_LE(rep_vebo.mean_remote(), rep_orig.mean_remote() + 1e-9);
}

TEST(Trace, DegreeSortedGraphHasPredictableBranches) {
  // Section V-E: consecutive vertices with equal degree make the inner
  // loop branch predictable. Compare a random order against VEBO
  // (degree-sorted within partitions).
  const Graph g = gen::rmat(10, 8, 9);
  const Graph shuffled =
      permute(g, order::random_order(g.num_vertices(), 3));
  const auto part_s = order::partition_by_destination(shuffled, 16);
  const auto rep_s = simarch::simulate_edgemap(shuffled, part_s,
                                               tiny_machine());

  const auto r = order::vebo(g, 16);
  const Graph h = permute(g, r.perm);
  const auto rep_v =
      simarch::simulate_edgemap(h, r.partitioning, tiny_machine());
  EXPECT_LT(rep_v.mean_branch(), rep_s.mean_branch());
}

}  // namespace
}  // namespace vebo
