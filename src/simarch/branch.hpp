// Branch predictor simulator (gshare): global history XOR branch id
// indexes a table of 2-bit saturating counters. The interesting branch in
// CSR/CSC traversal is the inner-loop back-edge whose trip count is the
// vertex degree — the paper attributes VEBO's lower misprediction rate to
// consecutive vertices having equal degree (Section V-E).
#pragma once

#include <cstdint>
#include <vector>

namespace vebo::simarch {

class BranchSim {
 public:
  explicit BranchSim(int table_bits = 14, int history_bits = 12);

  /// Simulates one conditional branch; returns true if predicted right.
  bool branch(std::uint64_t pc, bool taken);

  std::uint64_t branches() const { return branches_; }
  std::uint64_t mispredictions() const { return mispredictions_; }
  void reset_stats() { branches_ = mispredictions_ = 0; }

 private:
  std::vector<std::uint8_t> table_;  // 2-bit counters
  std::uint64_t table_mask_;
  std::uint64_t history_ = 0;
  std::uint64_t history_mask_;
  std::uint64_t branches_ = 0;
  std::uint64_t mispredictions_ = 0;
};

}  // namespace vebo::simarch
