#include "cluster/server.h"

#include <algorithm>
#include <cstddef>

#include "common/assert.h"

namespace anu::cluster {

Server::Server(sim::Simulation& simulation, ServerId id, double speed,
               const ServerHooks& hooks, const CacheConfig& cache)
    : sim_(simulation),
      hooks_(hooks),
      id_(id),
      speed_(speed),
      nominal_speed_(speed),
      cache_(cache) {
  ANU_REQUIRE(speed > 0.0);
  ANU_REQUIRE(cache_.cold_penalty_factor >= 1.0);
  ANU_REQUIRE(!cache_.enabled || cache_.warmup_requests > 0);
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

void Server::enqueue(FileSetId file_set, double demand, SimTime arrival,
                     std::uint64_t job_id) {
  ANU_REQUIRE(up_);
  ANU_REQUIRE(demand >= 0.0);
  Job job;
  job.demand = demand * cache_factor(file_set);
  if (cache_.enabled) ++cache_hits_[file_set.value()];
  job.arrival = arrival < 0.0 ? sim_.now() : arrival;
  job.id = job_id;
  job.file_set = file_set;
  queue_.push_back(job);
  if (!busy_) start_next();
}

void Server::compact() {
  if (head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  } else if (head_ > queue_.size() - head_) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void Server::start_next() {
  if (head_ == queue_.size()) return;
  busy_ = true;
  in_flight_ = queue_[head_++];
  compact();
  const double service = in_flight_.demand / speed_;
  service_start_ = sim_.now();
  completion_event_ = sim_.schedule_at(service_start_ + service, [this] {
    busy_ = false;
    busy_time_ += sim_.now() - service_start_;
    ++completed_;
    // Built first: starting the next job overwrites in_flight_.
    const Completion done{id_, in_flight_.file_set, in_flight_.arrival,
                          sim_.now(), in_flight_.id};
    start_next();
    interval_.add(done.latency());
    if (hooks_.on_complete) hooks_.on_complete(done);
    if (!busy_ && up_ && hooks_.on_idle) hooks_.on_idle(id_);
  });
  if (in_flight_.id != 0 && hooks_.on_start) hooks_.on_start(in_flight_.id);
}

CancelOutcome Server::cancel(std::uint64_t job_id) {
  if (job_id == 0) return CancelOutcome::kNotFound;
  if (busy_ && in_flight_.id == job_id) {
    completion_event_.cancel();
    busy_ = false;
    busy_time_ += sim_.now() - service_start_;  // partial service rendered
    start_next();
    if (!busy_ && hooks_.on_idle) hooks_.on_idle(id_);
    return CancelOutcome::kInService;
  }
  const auto waiting = std::find_if(
      queue_.begin() + static_cast<std::ptrdiff_t>(head_), queue_.end(),
      [job_id](const Job& job) { return job.id == job_id; });
  if (waiting == queue_.end()) return CancelOutcome::kNotFound;
  queue_.erase(waiting);
  compact();
  return CancelOutcome::kQueued;
}

std::size_t Server::move_queued(FileSetId file_set, Server& to) {
  ANU_REQUIRE(&to != this);
  std::size_t moved = 0;
  auto kept = queue_.begin();
  for (auto it = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
       it != queue_.end(); ++it) {
    if (it->file_set == file_set) {
      // The acquirer applies its own cache factor to the demand as stored.
      to.submit(file_set, it->demand, it->arrival);
      ++moved;
    } else {
      *kept++ = *it;
    }
  }
  queue_.erase(kept, queue_.end());
  head_ = 0;
  return moved;
}

Server::IntervalReport Server::take_interval_report() {
  IntervalReport report{interval_.mean(), interval_.count()};
  interval_.reset();
  return report;
}

void Server::fail() {
  up_ = false;
  if (busy_) {
    completion_event_.cancel();
    busy_ = false;
    busy_time_ += sim_.now() - service_start_;  // partial service rendered
    if (hooks_.on_flush) {
      hooks_.on_flush(in_flight_.file_set, in_flight_.demand, in_flight_.id);
    }
  }
  while (head_ < queue_.size()) {
    const Job flushed = queue_[head_++];
    if (hooks_.on_flush) {
      hooks_.on_flush(flushed.file_set, flushed.demand, flushed.id);
    }
  }
  compact();
  cache_hits_.clear();  // a restarted server comes back cold
}

void Server::recover() {
  ANU_REQUIRE(!up_);
  ANU_ENSURE(queue_length() == 0);
  up_ = true;
  // Any gray degradation active at failure time does not survive the
  // restart: a recovered server runs at nominal speed.
  restore();
}

void Server::degrade(double factor) {
  ANU_REQUIRE(factor > 0.0 && factor <= 1.0);
  ANU_REQUIRE(up_);
  speed_ = nominal_speed_ * factor;
  ANU_REQUIRE(speed_ > 0.0);
}

void Server::restore() { speed_ = nominal_speed_; }

}  // namespace anu::cluster
