// Makespan models: project measured per-partition times onto the paper's
// 48-thread machine. This is the substitution for multi-socket hardware
// (README, "Hardware substitutions"): given the sequential time of each
// partition, the completion time of a parallel loop is
//  * static scheduling (Polymer): partitions are bound to threads in
//    contiguous blocks up front — makespan = slowest thread's total;
//  * dynamic scheduling (Ligra/Cilk): free threads take the next chunk —
//    modeled by greedy list scheduling in partition order;
//  * hybrid (GraphGrind): partitions statically bound to sockets,
//    dynamically distributed among the threads inside a socket.
#pragma once

#include <cstddef>
#include <span>

namespace vebo::metrics {

/// Static block scheduling: partition p goes to thread p*T/P's block.
double makespan_static(std::span<const double> part_times,
                       std::size_t threads);

/// Greedy list scheduling (arrival order = partition order): each
/// partition goes to the earliest-free thread. Models dynamic/work-
/// stealing runtimes; within 2x of optimal by Graham's bound.
double makespan_dynamic(std::span<const double> part_times,
                        std::size_t threads);

/// GraphGrind hybrid: contiguous blocks of partitions per socket (static),
/// dynamic scheduling inside each socket.
double makespan_hybrid(std::span<const double> part_times,
                       std::size_t sockets, std::size_t threads_per_socket);

/// Sum of all partition times (single-thread lower bound reference).
double total_time(std::span<const double> part_times);

/// Parallel efficiency of a schedule: total / (threads * makespan).
double efficiency(double total, double makespan, std::size_t threads);

}  // namespace vebo::metrics
