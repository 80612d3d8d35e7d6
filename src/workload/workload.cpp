#include "workload/workload.h"

#include <utility>

#include "common/assert.h"

namespace anu::workload {

Workload::Workload(std::vector<FileSet> file_sets,
                   std::vector<Request> requests)
    : file_sets_(std::move(file_sets)), requests_(std::move(requests)) {
  for (std::size_t i = 0; i < file_sets_.size(); ++i) {
    ANU_REQUIRE(file_sets_[i].id == FileSetId(static_cast<std::uint32_t>(i)));
  }
  // One pass over the requests: in time order, each of a known file set.
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    ANU_REQUIRE(requests_[i].file_set.value() < file_sets_.size());
    ANU_REQUIRE(i == 0 || !(requests_[i].arrival < requests_[i - 1].arrival));
  }
}

const FileSet& Workload::file_set(FileSetId id) const {
  ANU_REQUIRE(id.value() < file_sets_.size());
  return file_sets_[id.value()];
}

double Workload::total_weight() const {
  double sum = 0.0;
  for (const FileSet& fs : file_sets_) sum += fs.weight;
  return sum;
}

double Workload::total_demand() const {
  double sum = 0.0;
  for (const Request& r : requests_) sum += r.demand;
  return sum;
}

SimTime Workload::span() const {
  return requests_.empty() ? 0.0 : requests_.back().arrival;
}

std::vector<std::size_t> Workload::requests_per_file_set() const {
  std::vector<std::size_t> counts(file_sets_.size(), 0);
  for (const Request& r : requests_) ++counts[r.file_set.value()];
  return counts;
}

std::vector<double> Workload::demand_per_file_set() const {
  std::vector<double> demand(file_sets_.size(), 0.0);
  for (const Request& r : requests_) demand[r.file_set.value()] += r.demand;
  return demand;
}

}  // namespace anu::workload
