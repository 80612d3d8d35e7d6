#include "workload/synthetic.h"

#include <algorithm>
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
  ANU_REQUIRE(config.duration > 0.0);
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

  std::vector<Request> requests;
  requests.reserve(config.request_count);
  const double gap_lo = 1.0;
  const BoundedPareto gap(config.pareto_shape, gap_lo,
                          gap_lo * config.pareto_bound_ratio);
  StreamDraws draws;
  for (std::size_t i = 0; i < config.file_set_count; ++i) {
    const auto id = FileSetId(static_cast<std::uint32_t>(i));
    file_sets.push_back(
        FileSet{id, "fileset/" + std::to_string(i), x[i] * c});
    Xoshiro256 rng = Xoshiro256::substream(config.seed, 1000 + i);
    // Rescale the renewal process so the last arrival lands just inside the
    // run. Rescaling preserves burst structure (ratios between gaps) while
    // hitting the exact request count.
    const auto times = draws.renewal(counts[i], gap, rng);
    const double scale = config.duration * 0.999 / times.back();
    const auto demands = draws.demands(counts[i], mean_demand,
                                       config.demand_jitter_sigma, rng);
    for (std::size_t j = 0; j < counts[i]; ++j) {
      requests.push_back(Request{times[j] * scale, id, demands[j]});
    }
  }
  order_by_arrival(requests);
  return Workload(std::move(file_sets), std::move(requests));
}

}  // namespace anu::workload
