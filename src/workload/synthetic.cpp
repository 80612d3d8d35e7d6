#include "workload/synthetic.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/assert.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "workload/streams.h"

namespace anu::workload {

double synthetic_mean_demand(const SyntheticConfig& config) {
  // Offered load = request_count * mean_demand over `duration`; utilization
  // target rho = offered / (duration * capacity)  =>  mean_demand:
  return config.target_utilization * config.duration *
         config.cluster_capacity / static_cast<double>(config.request_count);
}

Workload make_synthetic_workload(const SyntheticConfig& config) {
  ANU_REQUIRE(config.file_set_count > 0);
  ANU_REQUIRE(config.request_count >= config.file_set_count);
  ANU_REQUIRE(config.duration > 0.0 && std::isfinite(config.duration));
  ANU_REQUIRE(config.weight_hi >= config.weight_lo && config.weight_lo > 0.0);
  ANU_REQUIRE(config.target_utilization > 0.0 &&
              config.target_utilization < 1.0);

  Xoshiro256 weight_rng = Xoshiro256::substream(config.seed, 0);
  const UniformReal weight_dist(config.weight_lo, config.weight_hi);

  // File sets and their weight factors X_i.
  std::vector<FileSet> file_sets;
  file_sets.reserve(config.file_set_count);
  std::vector<double> x(config.file_set_count);
  double x_sum = 0.0;
  for (std::size_t i = 0; i < config.file_set_count; ++i) {
    x[i] = weight_dist.sample(weight_rng);
    x_sum += x[i];
  }

  // Request budget split proportionally to X_i (largest-remainder rounding
  // so counts sum exactly to request_count and every file set gets >= 1).
  std::vector<std::size_t> counts(config.file_set_count, 1);
  std::size_t assigned = config.file_set_count;
  std::vector<std::pair<double, std::size_t>> remainders;
  remainders.reserve(config.file_set_count);
  const auto budget = static_cast<double>(config.request_count -
                                          config.file_set_count);
  for (std::size_t i = 0; i < config.file_set_count; ++i) {
    const double exact = budget * x[i] / x_sum;
    const auto whole = static_cast<std::size_t>(exact);
    counts[i] += whole;
    assigned += whole;
    remainders.emplace_back(exact - static_cast<double>(whole), i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; assigned < config.request_count; ++k, ++assigned) {
    ++counts[remainders[k % remainders.size()].second];
  }

  const double mean_demand = synthetic_mean_demand(config);

  // The scaling factor c maps weight factors X to unit-speed seconds:
  // weight_i = X_i * c with sum(weight) = total offered demand.
  const double total_demand =
      mean_demand * static_cast<double>(config.request_count);
  const double c = total_demand / x_sum;

  for (std::size_t i = 0; i < config.file_set_count; ++i) {
    file_sets.push_back(FileSet{FileSetId(static_cast<std::uint32_t>(i)),
                                "fileset/" + std::to_string(i), x[i] * c});
  }
  const double gap_lo = 1.0;
  const BoundedPareto gap(config.pareto_shape, gap_lo,
                          gap_lo * config.pareto_bound_ratio);
  // Each stream's last arrival lands just inside the run.
  std::vector<Request> requests(config.request_count);
  draw_streams(counts,
               StreamShape{.seed = config.seed,
                           .substream_base = 1000,
                           .gap = gap,
                           .span = config.duration * 0.999,
                           .mean_demand = mean_demand,
                           .sigma = config.demand_jitter_sigma},
               requests);
  order_by_arrival(requests);
  return Workload(std::move(file_sets), std::move(requests));
}

}  // namespace anu::workload
