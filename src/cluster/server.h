// A metadata file server in the shared-disk cluster model.
//
// Paper §3: in a shared-disk file system cluster the file servers carry the
// metadata workload only (data I/O goes directly to the shared disks over
// the SAN), so a server is modelled as a FIFO queue with a speed factor —
// paper §5.1: "servers use a first-in-first-out queuing discipline for
// workload" and "Servers 0..4 have processing power 1, 3, 5, 7, 9; if the
// least powerful server consumes time T for a metadata request, the most
// powerful consumes T/9." A request carries a demand in seconds of work at
// speed 1; the server serves one request at a time, in arrival order, in
// demand / speed seconds.
//
// Each server keeps the per-tuning-interval latency statistic it reports to
// the delegate (§4: "each server monitors its performance and produces a
// performance metric over a chosen time interval ... we use latency").
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "sim/simulation.h"

namespace anu::cluster {

/// Cold-cache model (paper §5.3): "The releasing server needs to flush its
/// cache ... The acquiring server must initialize the file set [and]
/// starts with a cold cache, which hinders initial performance."
///
/// A server serves a file set's requests at `cold_penalty_factor` times the
/// base demand while its cache for that file set is cold; the penalty
/// decays linearly over the first `warmup_requests` requests. Shedding a
/// file set flushes its cache entry (evict), so re-acquiring starts cold.
struct CacheConfig {
  bool enabled = false;
  /// Requests until a file set's working set is fully cached.
  std::uint32_t warmup_requests = 20;
  /// Demand multiplier at fully-cold (>= 1).
  double cold_penalty_factor = 2.0;
};

/// Completion record handed to the cluster's observer.
struct Completion {
  ServerId server;
  FileSetId file_set;
  SimTime arrival;
  SimTime completion;
  /// Nonzero for replicas of a redundant dispatch (submit_replica); the
  /// driver uses it to find the replica group the winner belongs to.
  std::uint64_t job_id = 0;
  [[nodiscard]] double latency() const { return completion - arrival; }
};

/// What Server::cancel() found (and removed).
enum class CancelOutcome {
  kNotFound,   // no job with that id here
  kQueued,     // removed while still waiting — no service wasted
  kInService,  // aborted mid-service — partial work counts as busy time
};

/// The four events a server reports. The Cluster owns one ServerHooks and
/// every server calls it directly; a member left null is not called.
struct ServerHooks {
  /// At each completion, after the next waiting request has started (and
  /// fired on_start) and the interval statistic has recorded the latency.
  /// Not for requests flushed by fail() or removed by cancel(). May submit.
  std::function<void(const Completion&)> on_complete;
  /// For each request fail() flushes: the one in service first, then the
  /// waiting ones in queue order. `job_id` is the request's cancellation id
  /// (0 for plain requests), so the driver can tell a stranded replica from
  /// a request it must re-dispatch. `demand` is the demand as queued.
  std::function<void(FileSetId, double demand, std::uint64_t job_id)> on_flush;
  /// When a replica's service begins (submit_replica), possibly inside that
  /// call when the server is idle: the cancel-on-start hook of redundant
  /// dispatch. Plain requests do not fire it. Must not cancel the replica
  /// it fires for.
  std::function<void(std::uint64_t job_id)> on_start;
  /// When the queue drains: after a completion while the server is up, or
  /// after cancel() aborted the request in service. Not for the initial
  /// idle state, fail() or recover(); membership changes are reported
  /// through their own channel. The idle-token feed for JIQ-style
  /// dispatchers (docs/strategies.md).
  std::function<void(ServerId)> on_idle;
};

class Server {
 public:
  /// `speed` is the capacity factor (> 0). `hooks` must outlive the server.
  Server(sim::Simulation& simulation, ServerId id, double speed,
         const ServerHooks& hooks, const CacheConfig& cache = {});
  // A temporary ServerHooks would dangle.
  Server(sim::Simulation&, ServerId, double, const ServerHooks&&,
         const CacheConfig& = {}) = delete;

  // The pending completion event holds `this`.
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] ServerId id() const { return id_; }
  [[nodiscard]] double speed() const { return speed_; }
  [[nodiscard]] bool is_up() const { return up_; }
  /// Waiting requests plus the one in service.
  [[nodiscard]] std::size_t queue_length() const {
    return queue_.size() - head_ + (busy_ ? 1 : 0);
  }

  /// Enqueues a metadata request (service starts at once if idle); the
  /// server must be up. A non-negative `arrival` preserves the request's
  /// original arrival time; otherwise it arrives now.
  void submit(FileSetId file_set, double demand, SimTime arrival = -1.0);

  /// Enqueues one replica of a redundant dispatch (docs/strategies.md).
  /// `job_id` (nonzero, unique across the run) identifies the replica for
  /// cancel(), on_start and the replica's Completion, so the driver can
  /// settle the group.
  void submit_replica(FileSetId file_set, double demand, std::uint64_t job_id);

  /// Cancels the replica with nonzero id `job_id`: a waiting replica is
  /// dropped, an in-service one is aborted (its completion event is
  /// cancelled, partial work still counts as busy time — the price of
  /// redundancy — and the next waiting request starts). Cancelled replicas
  /// never reach the latency statistics, on_complete or on_flush.
  CancelOutcome cancel(std::uint64_t job_id);

  /// Moves every waiting request of `file_set` to the back of `to`'s queue,
  /// in queue order, as plain requests that keep their arrival times: the
  /// paper's shed protocol redirects pending work to the acquiring server.
  /// The request in service stays. `to` must be another server and up.
  /// Returns how many requests moved.
  std::size_t move_queued(FileSetId file_set, Server& to);

  /// Interval statistics: latency of requests completed since the last
  /// take_interval_report() call. This is the number reported to the
  /// delegate each tuning round.
  struct IntervalReport {
    double mean_latency = 0.0;
    std::size_t completed = 0;
  };
  IntervalReport take_interval_report();

  [[nodiscard]] std::uint64_t requests_served() const { return completed_; }
  /// Busy time accrues at completion (or at cancel, failure or observation
  /// time for the request in service), so a request straddling the
  /// observation instant counts only the service actually rendered and
  /// utilization never exceeds 1.
  [[nodiscard]] double busy_time() const {
    return busy_time_ + (busy_ ? sim_.now() - service_start_ : 0.0);
  }
  [[nodiscard]] double utilization(SimTime horizon) const {
    return horizon > 0.0 ? busy_time() / horizon : 0.0;
  }

  /// Fails the server: aborts the request in service and flushes the queue
  /// through on_flush, then drops all cache warmth (a restarted server is
  /// cold). Submitting to a failed server is a contract violation until
  /// recover(), which brings it back up idle and at nominal speed.
  void fail();
  void recover();

  /// Gray failure (docs/chaos.md): the server stays up — it heartbeats,
  /// reports, and keeps serving — but at `factor` times its nominal speed
  /// (0 < factor <= 1). A speed change takes effect at the next service
  /// start; the request in service finishes at its scheduled time.
  /// restore() returns it to nominal.
  void degrade(double factor);
  void restore();

  /// Flushes the cache entry of a shed file set (§5.3). No-op when the
  /// cache model is disabled or the file set was never served here.
  void evict(FileSetId file_set);
  /// Current warmth in [0, 1]: 0 = fully cold, 1 = fully warm.
  [[nodiscard]] double warmth(FileSetId file_set) const;

 private:
  /// A queued request: plain data, so queueing one copies 32 bytes and
  /// allocates nothing.
  struct Job {
    /// Seconds of work at speed 1, cache factor applied.
    double demand = 0.0;
    SimTime arrival = 0.0;
    /// Cancellation id; 0 for plain requests.
    std::uint64_t id = 0;
    FileSetId file_set;
  };
  static_assert(std::is_trivially_copyable_v<Job> && sizeof(Job) == 32);

  void enqueue(FileSetId file_set, double demand, SimTime arrival,
               std::uint64_t job_id);
  void start_next();
  /// Empties queue_ once every job in it is consumed, and drops the
  /// consumed prefix once it outgrows the waiting jobs, so the vector's
  /// storage is reused instead of growing.
  void compact();
  [[nodiscard]] double cache_factor(FileSetId file_set) const;

  sim::Simulation& sim_;
  const ServerHooks& hooks_;
  ServerId id_;
  double speed_;
  double nominal_speed_;
  bool up_ = true;
  bool busy_ = false;
  // Waiting jobs are queue_[head_..]; starting one advances head_.
  std::vector<Job> queue_;
  std::size_t head_ = 0;
  Job in_flight_;
  SimTime service_start_ = 0.0;
  TimerHandle completion_event_;
  std::uint64_t completed_ = 0;
  double busy_time_ = 0.0;
  CacheConfig cache_;
  std::unordered_map<std::uint32_t, std::uint32_t> cache_hits_;
  RunningStats interval_;
};

}  // namespace anu::cluster
