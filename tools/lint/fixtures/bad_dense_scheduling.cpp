// vebo-lint-fixture: dense-scheduling
// Known-bad: an algorithm running its own partition loop instead of
// for_dense_ranges.

void dense_round(const Engine& eng, Body& body) {
  const auto& part = eng.partitioning();
  parallel_for(
      0, part.num_partitions(),
      [&](std::size_t p) { body(part.begin(p), part.end(p)); },
      eng.partition_loop());
}
