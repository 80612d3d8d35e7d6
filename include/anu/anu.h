// libanu — the embeddable ANU load balancer (public API).
//
// This is the paper's decision core behind a C++ facade with no internal
// headers: feed it membership changes and per-interval latency reports,
// ask it to retune, route keys through the current region map. The same
// code drives the in-repo simulator, the `anu_serve` demo, and any
// application that links `libanu` — docs/runtime.md walks through both
// embeddings.
//
// Thread model: a Balancer is confined to one thread (or externally
// synchronized), like every other component in this codebase.
//
//   anu::BalancerConfig config;
//   anu::Balancer balancer(4, config);        // 4 servers, equal shares
//   balancer.record_latency(0, 0.120, 500);   // server, mean seconds, count
//   ...
//   const auto result = balancer.retune();    // one delegate round
//   const std::uint32_t owner = balancer.route("user:4711");
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace anu {

/// Tuning knobs, mirroring the delegate's damped multiplicative update
/// (see docs/design notes; defaults are the paper-calibrated values).
struct BalancerConfig {
  /// Damping exponent of the multiplicative update (1 = undamped).
  double alpha = 0.3;
  /// Max multiplicative growth of a share in one round.
  double growth_cap = 1.5;
  /// Max multiplicative shrink of a share in one round.
  double shrink_cap = 3.0;
  /// Growth factor for a server that completed nothing this round.
  double idle_growth = 1.5;
  /// Share floor as a fraction of the equal share.
  double min_share_fraction = 0.1;
  /// Relative dead band around the system average latency.
  double dead_band = 1.0;
  /// Seed of the hash family mapping keys to the unit interval. All
  /// replicas of one cluster must agree on it.
  std::uint64_t hash_seed = 0x616e755f68617368ULL;
  /// Probe-round budget for route(); the default never exhausts in
  /// practice (each round hits an occupied region with probability 1/2).
  std::uint32_t max_probe_rounds = 64;
};

/// Result of one tuning round.
struct RetuneResult {
  /// Map version after the round (increments once per retune()).
  std::uint64_t version = 0;
  /// Completion-weighted mean latency across reporting servers (0 when
  /// nothing completed).
  double system_average = 0.0;
  /// Whether any share actually moved.
  bool changed = false;
  /// Servers pinned at the share floor yet still above-average slow — the
  /// paper's "incompetent component" signal; surface to an operator.
  std::vector<std::uint32_t> incompetent;
};

class Balancer {
 public:
  /// `server_count` servers starting from the deterministic equal-share
  /// map. `server_count` must be positive.
  explicit Balancer(std::size_t server_count,
                    const BalancerConfig& config = {});
  ~Balancer();
  Balancer(Balancer&&) noexcept;
  Balancer& operator=(Balancer&&) noexcept;
  Balancer(const Balancer&) = delete;
  Balancer& operator=(const Balancer&) = delete;

  [[nodiscard]] std::size_t server_count() const;

  /// Marks a server down (its region is reclaimed at the next retune) or
  /// back up (it regrows from the share floor).
  void set_server_up(std::uint32_t server, bool up);
  [[nodiscard]] bool server_up(std::uint32_t server) const;

  /// Records server `server`'s report for the closing interval: mean
  /// request latency in seconds over `completed` finished requests.
  /// Overwrites any earlier report in the same interval.
  void record_latency(std::uint32_t server, double mean_latency,
                      std::uint64_t completed);

  /// Runs one delegate round on the recorded reports, applies the new map,
  /// and clears the reports. An up server with no report reads as idle
  /// (bounded growth), a down server's region is reclaimed. When no up
  /// server holds a share (every server that held the interval is down),
  /// each up server starts the round from an equal share. With every
  /// server down no round can run: the map is kept (route() keeps
  /// answering from it), the reports are cleared, the version still
  /// increments, and `changed` is false.
  RetuneResult retune();

  /// Routes a key on the current map: the server that owns it.
  [[nodiscard]] std::uint32_t route(std::string_view key) const;

  /// Current map version (0 until the first retune()).
  [[nodiscard]] std::uint64_t version() const;

  /// Per-server shares of the unit interval, summing to 0.5 (the map keeps
  /// half the interval unoccupied — that slack is what lets shares move).
  [[nodiscard]] std::vector<double> shares() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace anu
