// vebo-lint-fixture: bench-record
// Known-bad: a bench writing its own JSON file instead of going through
// bench::Record (bench/bench_common.hpp), the one writer of BENCH_*.json.
#include <fstream>

int main() {
  std::ofstream json("BENCH_example.json");
  json << "{\"speedup\": 2.0}\n";
  return 0;
}
