#include "cluster/cluster.h"

#include "common/assert.h"
#include "obs/trace_sink.h"

namespace anu::cluster {

ClusterConfig paper_cluster() { return ClusterConfig{}; }

Cluster::Cluster(sim::Simulation& simulation, const ClusterConfig& config)
    : sim_(simulation), cache_(config.cache) {
  ANU_REQUIRE(!config.server_speeds.empty());
  for (double speed : config.server_speeds) add_server(speed);
}

std::size_t Cluster::up_count() const {
  std::size_t n = 0;
  for (const auto& s : servers_) n += s->is_up() ? 1u : 0u;
  return n;
}

Server& Cluster::server(ServerId id) {
  ANU_REQUIRE(id.value() < servers_.size());
  return *servers_[id.value()];
}

const Server& Cluster::server(ServerId id) const {
  ANU_REQUIRE(id.value() < servers_.size());
  return *servers_[id.value()];
}

double Cluster::total_capacity() const {
  double sum = 0.0;
  for (const auto& s : servers_) {
    if (s->is_up()) sum += s->speed();
  }
  return sum;
}

std::vector<double> Cluster::up_speeds() const {
  std::vector<double> speeds;
  speeds.reserve(servers_.size());
  for (const auto& s : servers_) speeds.push_back(s->is_up() ? s->speed() : 0.0);
  return speeds;
}

void Cluster::submit(ServerId to, FileSetId file_set, double demand,
                     SimTime arrival) {
  server(to).submit(file_set, demand, arrival);
}

std::size_t Cluster::migrate_queued(FileSetId file_set, ServerId from,
                                    ServerId to) {
  Server& source = server(from);
  if (!source.is_up()) return 0;  // failure already flushed its queue
  source.evict(file_set);  // shedding server flushes its cache (§5.3)
  return source.move_queued(file_set, server(to));
}

ServerId Cluster::add_server(double speed) {
  const auto id = ServerId(static_cast<std::uint32_t>(servers_.size()));
  servers_.push_back(std::make_unique<Server>(sim_, id, speed, hooks, cache_));
  // Initial construction also lands here; a t=0 server_add per initial
  // server gives the trace a self-describing cluster roster.
  if (auto* t = sim_.trace()) {
    t->emit(sim_.now(), obs::EventType::kServerAdd, id.value(), 0, 0, speed);
  }
  return id;
}

void Cluster::fail_server(ServerId id) {
  if (auto* t = sim_.trace()) {
    t->emit(sim_.now(), obs::EventType::kServerFail, id.value());
  }
  server(id).fail();
}

void Cluster::recover_server(ServerId id) {
  if (auto* t = sim_.trace()) {
    t->emit(sim_.now(), obs::EventType::kServerRecover, id.value());
  }
  server(id).recover();
}

void Cluster::degrade_server(ServerId id, double factor) {
  if (auto* t = sim_.trace()) {
    t->emit(sim_.now(), obs::EventType::kServerDegrade, id.value(), 0, 0,
            factor);
  }
  server(id).degrade(factor);
}

void Cluster::restore_server(ServerId id) {
  server(id).restore();
  if (auto* t = sim_.trace()) {
    t->emit(sim_.now(), obs::EventType::kServerRestore, id.value(), 0, 0,
            server(id).speed());
  }
}

}  // namespace anu::cluster
