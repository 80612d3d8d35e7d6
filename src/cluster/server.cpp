#include "cluster/server.h"

#include <algorithm>

#include "common/assert.h"

namespace anu::cluster {

Server::Server(sim::Simulation& simulation, ServerId id, double speed,
               const CacheConfig& cache)
    : id_(id),
      resource_(simulation, speed, "server" + std::to_string(id.value())),
      nominal_speed_(speed),
      cache_(cache) {
  ANU_REQUIRE(cache_.cold_penalty_factor >= 1.0);
  ANU_REQUIRE(!cache_.enabled || cache_.warmup_requests > 0);
  resource_.on_complete = [this](SimTime when, const sim::Job& done) {
    const Completion c{id_, FileSetId(static_cast<std::uint32_t>(done.tag)),
                       done.arrival, when, done.id};
    interval_.add(c.latency());
    if (on_complete) on_complete(c);
  };
  // The resource fires on_start only for cancellable jobs: replicas.
  resource_.on_start = [this](SimTime, const sim::Job& started) {
    if (on_start) on_start(started.id);
  };
  resource_.on_flush = [this](const sim::Job& job) {
    if (on_flush) {
      on_flush(FileSetId(static_cast<std::uint32_t>(job.tag)), job.demand,
               job.id);
    }
  };
  resource_.on_idle = [this] {
    if (on_idle) on_idle(id_);
  };
}

double Server::cache_factor(FileSetId file_set) const {
  if (!cache_.enabled) return 1.0;
  return cache_.cold_penalty_factor -
         (cache_.cold_penalty_factor - 1.0) * warmth(file_set);
}

double Server::warmth(FileSetId file_set) const {
  if (!cache_.enabled) return 1.0;
  const auto it = cache_hits_.find(file_set.value());
  if (it == cache_hits_.end()) return 0.0;
  return std::min(1.0, static_cast<double>(it->second) /
                           static_cast<double>(cache_.warmup_requests));
}

void Server::evict(FileSetId file_set) { cache_hits_.erase(file_set.value()); }

void Server::submit(FileSetId file_set, double demand, SimTime arrival) {
  enqueue(file_set, demand, arrival, 0);
}

void Server::submit_replica(FileSetId file_set, double demand,
                            std::uint64_t job_id) {
  ANU_REQUIRE(job_id != 0);
  enqueue(file_set, demand, -1.0, job_id);
}

sim::CancelOutcome Server::cancel(std::uint64_t job_id) {
  return resource_.cancel(job_id);
}

void Server::enqueue(FileSetId file_set, double demand, SimTime arrival,
                     std::uint64_t job_id) {
  ANU_REQUIRE(is_up());
  sim::Job job;
  job.demand = demand * cache_factor(file_set);
  if (cache_.enabled) ++cache_hits_[file_set.value()];
  job.tag = file_set.value();
  job.id = job_id;
  job.arrival = arrival;
  resource_.submit(job);
}

std::vector<Server::QueuedRequest> Server::extract_queued(FileSetId file_set) {
  const auto jobs = resource_.extract_queued([&](const sim::Job& job) {
    return job.tag == file_set.value();
  });
  std::vector<QueuedRequest> out;
  out.reserve(jobs.size());
  for (const sim::Job& job : jobs) {
    out.push_back(QueuedRequest{file_set, job.demand, job.arrival});
  }
  return out;
}

Server::IntervalReport Server::take_interval_report() {
  IntervalReport report{interval_.mean(), interval_.count()};
  interval_.reset();
  return report;
}

void Server::fail() {
  resource_.fail();
  cache_hits_.clear();  // a restarted server comes back cold
}

void Server::recover() {
  resource_.recover();
  // Any gray degradation active at failure time does not survive the
  // restart: a recovered server runs at nominal speed.
  restore();
}

void Server::degrade(double factor) {
  ANU_REQUIRE(factor > 0.0 && factor <= 1.0);
  ANU_REQUIRE(is_up());
  resource_.set_speed(nominal_speed_ * factor);
}

void Server::restore() {
  resource_.set_speed(nominal_speed_);
}

}  // namespace anu::cluster
