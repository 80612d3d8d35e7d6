// FIFO queueing resource — the service-station primitive.
//
// Paper §5.1: "servers use a first-in-first-out queuing discipline for
// workload." A FifoResource serves one job at a time in arrival order. Jobs
// carry a service *demand* in seconds-of-work-at-unit-speed; the resource
// divides by its current speed factor, which is how the evaluation's
// heterogeneous servers (speeds 1, 3, 5, 7, 9) are modelled: the same
// request takes T on speed 1 and T/9 on speed 9.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.h"
#include "sim/simulation.h"

namespace anu::sim {

/// A job submitted to a FifoResource: plain data. What happens when it
/// starts or completes is the resource's observers' business, so queueing a
/// job copies 32 bytes and allocates nothing.
struct Job {
  /// Seconds of work at speed 1.0.
  double demand = 0.0;
  /// Opaque tag the submitter uses to identify the job in callbacks.
  std::uint64_t tag = 0;
  /// Arrival time. Left negative, the resource stamps it at submit(); a
  /// non-negative value is preserved — used when a queued request migrates
  /// between servers and must keep its original arrival for latency
  /// accounting.
  SimTime arrival = -1.0;
  /// Unique cancellation handle. 0 (the default) means "not cancellable";
  /// a nonzero id can be passed to cancel() to remove the job whether it
  /// is still waiting or already in service. Redundant-dispatch replicas
  /// (docs/strategies.md) are the motivating user.
  std::uint64_t id = 0;
};
static_assert(std::is_trivially_copyable_v<Job> && sizeof(Job) == 32);

/// What cancel() found (and removed).
enum class CancelOutcome {
  kNotFound,   // no job with that id here
  kQueued,     // removed while still waiting — no service wasted
  kInService,  // aborted mid-service — partial work counts as busy time
};

class FifoResource {
 public:
  /// `speed` is the capacity factor (>0).
  FifoResource(Simulation& simulation, double speed, std::string name = {});

  FifoResource(const FifoResource&) = delete;
  FifoResource& operator=(const FifoResource&) = delete;

  /// Enqueues a job (starts service immediately if idle). No-op precondition:
  /// resource must be up.
  void submit(Job job);

  /// Changes the speed factor. Takes effect at the next service start; the
  /// in-flight job (if any) finishes at its already-scheduled time.
  void set_speed(double speed);
  [[nodiscard]] double speed() const { return speed_; }

  /// Fails the resource: aborts the in-flight job and flushes the queue,
  /// invoking `on_flush` (if set) for every aborted/flushed job. Further
  /// submit() calls are a contract violation until recover().
  void fail();

  /// Brings a failed resource back up (empty queue, idle).
  void recover();

  /// Removes and returns every *waiting* job matching `predicate` (the
  /// in-flight job, if any, keeps running — its service has started).
  /// Models pending requests being redirected when their file set moves.
  std::vector<Job> extract_queued(
      const std::function<bool(const Job&)>& predicate);

  /// Removes the job with nonzero cancellation id `id`. A waiting job is
  /// dropped from the queue; the in-flight job is aborted (its completion
  /// event is cancelled, the partial service rendered counts as busy time,
  /// and the next waiting job starts). Neither invokes on_complete or
  /// on_flush — cancellation is the caller's own bookkeeping.
  CancelOutcome cancel(std::uint64_t id);

  [[nodiscard]] bool is_up() const { return up_; }
  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_length() const {
    return queue_.size() - head_ + (busy_ ? 1 : 0);
  }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Total jobs completed and total busy time (for utilization reporting).
  /// Busy time accrues at completion (or failure/observation time for the
  /// in-flight job) so a job straddling the observation instant only
  /// counts the service actually rendered — utilization never exceeds 1.
  [[nodiscard]] std::uint64_t jobs_completed() const { return completed_; }
  [[nodiscard]] double busy_time() const {
    return busy_time_ + (busy_ ? sim_.now() - service_start_ : 0.0);
  }
  [[nodiscard]] double utilization(SimTime horizon) const {
    return horizon > 0.0 ? busy_time() / horizon : 0.0;
  }

  /// Invoked at each completion with (completion_time, job). Not invoked
  /// for jobs flushed by fail() or removed by cancel(). At a completion
  /// the next waiting job starts first (its on_start fires), then
  /// on_complete runs for the finished job, then on_idle if the queue
  /// drained. May submit().
  std::function<void(SimTime, const Job&)> on_complete;

  /// Invoked when service of a cancellable job (nonzero id) begins —
  /// possibly synchronously inside submit() when the resource is idle.
  /// Must not cancel the job it fires for.
  std::function<void(SimTime, const Job&)> on_start;

  /// Invoked for each job flushed by fail().
  std::function<void(const Job&)> on_flush;

  /// Invoked whenever the resource transitions to idle while up (a
  /// completion or cancellation drained the last job). Not invoked for the
  /// initial idle state or on fail()/recover() — membership changes are
  /// reported through their own channel. JIQ-style dispatchers use this as
  /// their idle-token feed (docs/strategies.md).
  std::function<void()> on_idle;

 private:
  void start_next();
  /// Empties queue_ once every job in it is consumed, and drops the
  /// consumed prefix once it outgrows the waiting jobs, so the vector's
  /// storage is reused instead of growing.
  void compact();

  Simulation& sim_;
  double speed_;
  std::string name_;
  bool up_ = true;
  bool busy_ = false;
  // Waiting jobs are queue_[head_..]; starting one advances head_.
  std::vector<Job> queue_;
  std::size_t head_ = 0;
  Job in_flight_;
  SimTime service_start_ = 0.0;
  anu::TimerHandle completion_event_;
  std::uint64_t completed_ = 0;
  double busy_time_ = 0.0;
};

}  // namespace anu::sim
