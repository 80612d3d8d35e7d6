// A metadata file server in the shared-disk cluster model.
//
// Paper §3: in a shared-disk file system cluster the file servers carry the
// metadata workload only (data I/O goes directly to the shared disks over
// the SAN), so a server is modelled as a FIFO queue with a speed factor —
// paper §5.1: "Servers 0..4 have processing power 1, 3, 5, 7, 9; if the
// least powerful server consumes time T for a metadata request, the most
// powerful consumes T/9."
//
// Each server keeps the per-tuning-interval latency statistic it reports to
// the delegate (§4: "each server monitors its performance and produces a
// performance metric over a chosen time interval ... we use latency").
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "sim/resource.h"

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

class Server {
 public:
  Server(sim::Simulation& simulation, ServerId id, double speed,
         const CacheConfig& cache = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] ServerId id() const { return id_; }
  [[nodiscard]] double speed() const { return resource_.speed(); }
  [[nodiscard]] bool is_up() const { return resource_.is_up(); }
  [[nodiscard]] std::size_t queue_length() const {
    return resource_.queue_length();
  }

  /// Enqueues a metadata request; `on_complete` observer (if set) fires at
  /// completion time. A non-negative `arrival` preserves the request's
  /// original arrival time (used when a queued request migrates with its
  /// file set).
  void submit(FileSetId file_set, double demand, SimTime arrival = -1.0);

  /// Enqueues one replica of a redundant dispatch (docs/strategies.md).
  /// `job_id` (nonzero, unique across the run) identifies the replica for
  /// cancel(); the on_start observer receives it when the replica's
  /// service begins — possibly synchronously inside this call when the
  /// server is idle — which is the driver's cancel-on-start hook. The
  /// replica's Completion carries job_id so the driver can settle the
  /// group.
  void submit_replica(FileSetId file_set, double demand, std::uint64_t job_id);

  /// Cancels the replica with nonzero id `job_id`: a waiting replica is
  /// dropped, an in-service one is aborted (partial work still counts as
  /// busy time — the price of redundancy). Cancelled replicas never reach
  /// the latency statistics or on_complete.
  sim::CancelOutcome cancel(std::uint64_t job_id);

  /// A queued (not yet started) request, as extracted on file-set moves.
  struct QueuedRequest {
    FileSetId file_set;
    double demand;
    SimTime arrival;
  };
  /// Removes and returns all waiting requests of one file set; the paper's
  /// shed protocol redirects pending work to the acquiring server.
  std::vector<QueuedRequest> extract_queued(FileSetId file_set);

  /// Interval statistics: latency of requests completed since the last
  /// take_interval_report() call. This is the number reported to the
  /// delegate each tuning round.
  struct IntervalReport {
    double mean_latency = 0.0;
    std::size_t completed = 0;
  };
  IntervalReport take_interval_report();

  [[nodiscard]] std::uint64_t requests_served() const {
    return resource_.jobs_completed();
  }
  [[nodiscard]] double utilization(SimTime horizon) const {
    return resource_.utilization(horizon);
  }

  /// Failure/recovery; queued requests are flushed through `on_flush`.
  /// Failure also drops all cache warmth (a restarted server is cold).
  void fail();
  void recover();

  /// Gray failure (docs/chaos.md): the server stays up — it heartbeats,
  /// reports, and keeps serving — but at `factor` times its nominal speed
  /// (0 < factor <= 1). Takes effect at the next service start, like any
  /// speed change. restore() returns it to nominal; a fail/recover cycle
  /// also comes back at nominal (a restarted server is healthy).
  void degrade(double factor);
  void restore();

  /// Flushes the cache entry of a shed file set (§5.3). No-op when the
  /// cache model is disabled or the file set was never served here.
  void evict(FileSetId file_set);
  /// Current warmth in [0, 1]: 0 = fully cold, 1 = fully warm.
  [[nodiscard]] double warmth(FileSetId file_set) const;

  /// Observers (wired by the Cluster). on_flush reports the flushed job's
  /// cancellation id (0 for plain requests) so the driver can tell a
  /// stranded replica from a request it must re-dispatch. on_start reports
  /// the job id of a replica (submit_replica) whose service begins; plain
  /// requests do not fire it. on_idle fires when the queue drains while the
  /// server is up — the idle-token feed for JIQ-style dispatchers.
  std::function<void(const Completion&)> on_complete;
  std::function<void(FileSetId, double demand, std::uint64_t job_id)> on_flush;
  std::function<void(std::uint64_t job_id)> on_start;
  std::function<void(ServerId)> on_idle;

 private:
  void enqueue(FileSetId file_set, double demand, SimTime arrival,
               std::uint64_t job_id);
  [[nodiscard]] double cache_factor(FileSetId file_set) const;

  ServerId id_;
  sim::FifoResource resource_;
  double nominal_speed_;
  CacheConfig cache_;
  std::unordered_map<std::uint32_t, std::uint32_t> cache_hits_;
  RunningStats interval_;
};

}  // namespace anu::cluster
