#include "sim/resource.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/assert.h"

namespace anu::sim {

FifoResource::FifoResource(Simulation& simulation, double speed,
                           std::string name)
    : sim_(simulation), speed_(speed), name_(std::move(name)) {
  ANU_REQUIRE(speed > 0.0);
}

void FifoResource::submit(Job job) {
  ANU_REQUIRE(up_);
  ANU_REQUIRE(job.demand >= 0.0);
  if (job.arrival < 0.0) job.arrival = sim_.now();
  queue_.push_back(job);
  if (!busy_) start_next();
}

void FifoResource::compact() {
  if (head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  } else if (head_ > queue_.size() - head_) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

std::vector<Job> FifoResource::extract_queued(
    const std::function<bool(const Job&)>& predicate) {
  std::vector<Job> taken;
  auto kept = queue_.begin();
  for (auto it = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
       it != queue_.end(); ++it) {
    if (predicate(*it)) {
      taken.push_back(*it);
    } else {
      *kept++ = *it;
    }
  }
  queue_.erase(kept, queue_.end());
  head_ = 0;
  return taken;
}

CancelOutcome FifoResource::cancel(std::uint64_t id) {
  if (id == 0) return CancelOutcome::kNotFound;
  if (busy_ && in_flight_.id == id) {
    completion_event_.cancel();
    busy_ = false;
    busy_time_ += sim_.now() - service_start_;  // partial service rendered
    start_next();
    if (!busy_ && on_idle) on_idle();
    return CancelOutcome::kInService;
  }
  const auto waiting = std::find_if(
      queue_.begin() + static_cast<std::ptrdiff_t>(head_), queue_.end(),
      [id](const Job& job) { return job.id == id; });
  if (waiting == queue_.end()) return CancelOutcome::kNotFound;
  queue_.erase(waiting);
  compact();
  return CancelOutcome::kQueued;
}

void FifoResource::set_speed(double speed) {
  ANU_REQUIRE(speed > 0.0);
  speed_ = speed;
}

void FifoResource::fail() {
  up_ = false;
  if (busy_) {
    completion_event_.cancel();
    busy_ = false;
    busy_time_ += sim_.now() - service_start_;  // partial service rendered
    if (on_flush) on_flush(in_flight_);
  }
  while (head_ < queue_.size()) {
    const Job flushed = queue_[head_++];
    if (on_flush) on_flush(flushed);
  }
  compact();
}

void FifoResource::recover() {
  ANU_REQUIRE(!up_);
  ANU_ENSURE(queue_length() == 0);
  up_ = true;
}

void FifoResource::start_next() {
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
    // Copy out: starting the next job overwrites in_flight_.
    const Job done = in_flight_;
    start_next();
    if (on_complete) on_complete(sim_.now(), done);
    if (!busy_ && up_ && on_idle) on_idle();
  });
  if (in_flight_.id != 0 && on_start) on_start(sim_.now(), in_flight_);
}

}  // namespace anu::sim
