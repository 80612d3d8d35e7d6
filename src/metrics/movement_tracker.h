// Load-movement accounting (Fig. 7).
//
// "Figure 7 illustrates both the number of file sets moved by ANU
// randomization over the course of synthetic workload simulation and the
// percentage of total workload that has been moved during the same
// experiment." Movement is costly in shared-disk clusters (cache flush on
// the shedding server, cold cache on the acquirer — §5.3), so the tracker
// records both counts and the weight of what moved, per tuning round and
// cumulatively.
#pragma once

#include <cstddef>
#include <vector>

#include "balance/balancer.h"
#include "common/types.h"

namespace anu::metrics {

class MovementTracker {
 public:
  /// `file_set_weights[fs]` is the file set's total offered work; the
  /// percentage-of-workload-moved metric is moved weight / total weight.
  explicit MovementTracker(std::vector<double> file_set_weights);

  struct Round {
    SimTime when = 0.0;
    std::size_t moved = 0;        // file sets moved this round
    double moved_weight = 0.0;    // their summed weights
    std::size_t cumulative = 0;   // running total of moves
    double cumulative_pct = 0.0;  // running % of total workload moved
  };

  void record(SimTime when, const balance::RebalanceResult& result);

  [[nodiscard]] const std::vector<Round>& rounds() const { return rounds_; }
  [[nodiscard]] std::size_t total_moved() const { return total_moved_; }
  /// Percentage (0..100+) of total workload weight that has moved; a file
  /// set moving twice counts twice, as in the paper's cumulative plot.
  [[nodiscard]] double percent_workload_moved() const;
  /// Number of distinct file sets that moved at least once.
  [[nodiscard]] std::size_t unique_moved() const;
  /// Percentage (0..100) of total workload weight whose file set moved at
  /// least once — the stricter reading of "workload that has been moved".
  [[nodiscard]] double percent_unique_workload_moved() const;

 private:
  std::vector<double> weights_;
  std::vector<bool> ever_moved_;
  double total_weight_ = 0.0;
  std::vector<Round> rounds_;
  std::size_t total_moved_ = 0;
  double moved_weight_ = 0.0;
};

}  // namespace anu::metrics
