// The heterogeneous shared-disk cluster: a set of Servers plus dynamic
// membership (add / remove / fail / recover).
#pragma once

#include <memory>
#include <vector>

#include "cluster/server.h"
#include "common/types.h"
#include "sim/simulation.h"

namespace anu::cluster {

struct ClusterConfig {
  /// Speed factor per initial server. Paper's evaluation cluster: 1,3,5,7,9.
  std::vector<double> server_speeds{1.0, 3.0, 5.0, 7.0, 9.0};
  /// Cold-cache model (§5.3); disabled by default to match the paper's
  /// simulator, enabled in the cache ablation.
  CacheConfig cache;
};

/// The paper's evaluation cluster configuration.
[[nodiscard]] ClusterConfig paper_cluster();

class Cluster {
 public:
  Cluster(sim::Simulation& simulation, const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Number of server slots ever created (includes failed ones).
  [[nodiscard]] std::size_t server_count() const { return servers_.size(); }
  /// Number of currently-up servers.
  [[nodiscard]] std::size_t up_count() const;

  [[nodiscard]] Server& server(ServerId id);
  [[nodiscard]] const Server& server(ServerId id) const;
  [[nodiscard]] bool is_up(ServerId id) const { return server(id).is_up(); }

  /// Sum of speed factors of up servers.
  [[nodiscard]] double total_capacity() const;
  [[nodiscard]] std::vector<double> up_speeds() const;

  /// Routes one request to a server. The caller (driver) decides *which*
  /// server using a balancer; the cluster just models service. Non-negative
  /// `arrival` preserves a migrating request's original arrival time.
  void submit(ServerId to, FileSetId file_set, double demand,
              SimTime arrival = -1.0);

  /// Redirects the waiting requests of a moved file set from `from` to
  /// `to`, keeping their original arrival times, and flushes the shedding
  /// server's cache for it (§5.3). Returns how many requests moved.
  std::size_t migrate_queued(FileSetId file_set, ServerId from, ServerId to);

  /// Adds a new server (commissioning); returns its id.
  ServerId add_server(double speed);

  /// Fails / recovers a server. Flushed in-queue requests surface through
  /// hooks.on_flush so the driver can re-dispatch them.
  void fail_server(ServerId id);
  void recover_server(ServerId id);

  /// Gray failure: scales the server's service rate to `factor` times
  /// nominal without taking it down — membership still sees it as up, so
  /// only the tuner's latency feedback can route load away from it.
  void degrade_server(ServerId id, double factor);
  void restore_server(ServerId id);

  /// What every server reports (ServerHooks): completions for metrics,
  /// flushed requests for re-dispatch, replica starts for cancel-on-start
  /// and drained queues for JIQ-style dispatch (docs/strategies.md).
  /// Declared before servers_, which refer to it.
  ServerHooks hooks;

 private:
  sim::Simulation& sim_;
  CacheConfig cache_;
  std::vector<std::unique_ptr<Server>> servers_;
};

}  // namespace anu::cluster
