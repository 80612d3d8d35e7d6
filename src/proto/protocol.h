// The ANU control protocol as per-node state machines over a simulated
// network — the message-level realization of §4.
//
// Per tuning interval, each server node computes its latency report and
// sends it to the delegate (the lowest-id up server, per the deterministic
// election every node can evaluate from the shared membership view — in a
// real deployment a heartbeat service provides that view). The delegate
// collects the round's reports, waits out a short grace period for
// stragglers, runs the stateless tuning function, and broadcasts the new
// region table with a bumped version. Each node applies newer versions to
// its local replica, computes which of its file sets it shed, and notifies
// the acquirers (ShedNotice).
//
// Tolerances built in and tested:
//   * lost reports: retransmitted (ack/timeout, capped exponential backoff);
//     a report lost past the retry budget reads as idle (bounded growth
//     nudge), never blocks a round;
//   * lost / reordered / duplicated updates: reliable delivery plus
//     (sender, seq) duplicate suppression gets them through a lossy
//     network; version numbers make application idempotent and monotonic,
//     and a node that missed version v entirely catches up at v+1;
//   * delegate failure mid-round: no update is produced that round; the
//     next round's reports go to the newly elected delegate, which runs
//     the same pure function on its own replica — statelessness in action;
//   * adversarial networks (loss, duplication, partitions, delay spikes —
//     src/faults, docs/chaos.md): the chaos suite asserts convergence
//     invariants after faults cease.
//
// The protocol layer abstracts the data plane: per round, each node's
// observed latency comes from a pluggable LatencyModel (queueing-level
// evaluation lives in driver/). What is being validated here is the
// control plane: agreement, versioning, failover, message cost.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"

#include "core/placement.h"
#include "core/region_map.h"
#include "core/tuner.h"
#include "hash/hash_family.h"
#include "proto/heartbeat.h"
#include "proto/transport.h"

namespace anu::proto {

/// Ack/retransmit policy for the messages that must arrive (latency
/// reports, region-map distribution). Lost best-effort messages merely
/// degrade one round; under sustained loss (docs/chaos.md) reliability is
/// what keeps every round completing and every replica converging.
struct RetransmitConfig {
  /// Initial retransmit timeout (seconds). Doubled per attempt, capped.
  double rto = 0.1;
  double rto_max = 2.0;
  /// Multiplicative jitter amplitude in [0, 1) applied per timeout so
  /// synchronized losses do not retransmit in lockstep.
  double jitter = 0.25;
  /// Total transmissions per message (first send + retries) before the
  /// sender gives up.
  std::uint32_t max_attempts = 8;
  /// Dedicated seed for retransmit jitter — isolated from the network and
  /// fault streams so enabling chaos never shifts retry timing.
  std::uint64_t seed = 0x7265747279ULL;  // "retry"
};

struct ProtocolConfig {
  double tuning_interval = 120.0;
  /// How long the delegate waits after its own report before tuning with
  /// whatever reports arrived.
  double report_grace = 0.5;
  core::TunerConfig tuner;
  std::uint64_t hash_seed = 0x616e755f68617368ULL;
  std::uint32_t max_probe_rounds = 64;
  /// Membership source. false: an oracle membership service (every node
  /// instantly knows who is up — the default, and what the §4 prose
  /// presumes). true: emergent heartbeat detection — nodes beacon every
  /// heartbeat.interval, suspect silent peers, elect the delegate from
  /// their *local* views, and a dead server's region is reclaimed when the
  /// delegate's detector suspects it (no oracle involved).
  bool use_heartbeats = false;
  HeartbeatConfig heartbeat;
  RetransmitConfig retransmit;
};

/// Produces server `s`'s interval report given its current share — the
/// abstracted data plane.
using LatencyModel = std::function<balance::ServerReport(
    std::uint32_t server, UnitPoint share)>;

class ProtocolCluster {
 public:
  /// The cluster is clock- and transport-agnostic: under the simulator pass
  /// the sim::Simulation and a proto::Network; under the realtime runtime pass
  /// a runtime::RealtimeClock and a runtime::UdpTransport. Nothing in this
  /// class (or below it in core/) knows which it got.
  ProtocolCluster(anu::Clock& clock, Transport& network,
                  const ProtocolConfig& config, std::size_t server_count,
                  LatencyModel latency_model);

  /// Replicated cluster configuration: the file sets every node knows.
  void register_file_sets(std::vector<std::string> names);

  /// Membership changes (also flips the node's network link).
  void fail_server(std::uint32_t server);
  void recover_server(std::uint32_t server);

  /// The delegate under oracle membership (ground truth lowest up node).
  [[nodiscard]] std::uint32_t delegate() const;
  /// Who node `self` believes is the delegate (== delegate() unless
  /// heartbeats are on, where it reflects that node's local detector).
  [[nodiscard]] std::uint32_t believed_delegate_of(std::uint32_t self) const;
  /// Does node `self` currently believe `peer` is up?
  [[nodiscard]] bool believed_up(std::uint32_t self, std::uint32_t peer) const;

  /// Node-local state, for tests and diagnostics.
  [[nodiscard]] const core::RegionMap& map_of(std::uint32_t server) const;
  [[nodiscard]] std::uint64_t version_of(std::uint32_t server) const;
  /// True when all up nodes hold identical (version, table) replicas.
  [[nodiscard]] bool replicas_agree() const;
  /// Routing as node `server` would perform it, on its own replica.
  [[nodiscard]] ServerId route_from(std::uint32_t server,
                                    std::string_view name) const;
  /// The same for a registered file set (its index in register_file_sets
  /// order), read from the replica's resolved owner table: no hashing.
  [[nodiscard]] ServerId route_from(std::uint32_t server,
                                    FileSetId file_set) const;
  [[nodiscard]] std::uint64_t shed_notices_received(
      std::uint32_t server) const;
  [[nodiscard]] std::uint64_t updates_published() const { return published_; }
  /// Owner-table memo: tables requested (one each time a node adopts a
  /// map: at construction, at registration, and per newer map applied) and
  /// tables resolved (requests whose map content differs from the last
  /// map resolved).
  [[nodiscard]] std::uint64_t owner_tables_requested() const {
    return tables_requested_;
  }
  [[nodiscard]] std::uint64_t owner_tables_resolved() const {
    return tables_resolved_;
  }

  /// Reliable-delivery counters, aggregated over all nodes. They reconcile
  /// as: acks_received <= reliable_sent + retransmits (each ack answers one
  /// transmission), and every pending entry ends acked, abandoned, or
  /// cancelled by its sender failing.
  [[nodiscard]] std::uint64_t reliable_sent() const { return reliable_sent_; }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t acks_received() const { return acks_received_; }
  /// Received reliable messages whose (sender, seq) was already processed —
  /// retransmit echoes and injected duplicates, suppressed before dispatch.
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  /// Reliable sends abandoned after max_attempts or because the receiver
  /// was believed down.
  [[nodiscard]] std::uint64_t retries_abandoned() const {
    return retries_abandoned_;
  }

  /// Fired when a node sheds a file set on applying a new map (at the
  /// moment it sends the ShedNotice): (file_set, from, to). The data-plane
  /// integration uses this to hand the file set's queued requests over.
  std::function<void(std::uint32_t, std::uint32_t, std::uint32_t)> on_shed;

 private:
  /// One in-flight reliable message awaiting its ack.
  struct PendingSend {
    Message message;
    std::uint32_t to = 0;
    std::uint32_t attempts = 1;  // transmissions so far
    double rto = 0.0;            // next timeout (pre-jitter)
    anu::TimerHandle timer;
  };

  /// A region map resolved against the registered file sets. Immutable, so
  /// every replica holding the same map content can share one.
  struct OwnerTable {
    core::RegionMap map;
    /// owner[fs]: the server file set fs routes to under `map`.
    std::vector<ServerId> owner;
    /// owned[s]: the file sets that route to server s, ascending.
    std::vector<std::vector<std::uint32_t>> owned;
  };

  struct Node {
    std::shared_ptr<const OwnerTable> table;  // the replica's map, resolved
    std::uint64_t version = 0;
    bool up = true;
    std::uint64_t shed_notices = 0;
    // Reliable-delivery sender state: per-node monotonically increasing
    // sequence (never reset, so (sender, seq) stays unique across
    // fail/recover cycles) and the unacked sends keyed by seq.
    std::uint64_t next_seq = 1;
    std::unordered_map<std::uint64_t, PendingSend> pending;
    // Receiver state: seqs already processed, per sender — retransmits and
    // injected duplicates are re-acked but not re-dispatched.
    std::vector<std::unordered_set<std::uint64_t>> seen_seqs;
    // Delegate-role state (used only while this node is the delegate).
    std::vector<std::optional<balance::ServerReport>> round_reports;
    std::uint64_t collecting_round = 0;
    std::uint64_t last_tuned_round = 0;  // guards against double-tuning
    anu::TimerHandle grace_deadline;
  };

  void on_message(std::uint32_t self, std::uint32_t from,
                  const Message& message);
  void on_tick(SimTime now);
  void delegate_collect(std::uint32_t self, const LatencyReport& report);
  void delegate_tune(std::uint32_t self);
  void apply_update(std::uint32_t self, const RegionMapUpdate& update);
  /// The owner table of `map`: the last one resolved when its map has the
  /// same content (never judged by version alone: under heartbeat split
  /// views two delegates can publish different maps as one round's
  /// version), otherwise a fresh resolution of every registered file set.
  [[nodiscard]] std::shared_ptr<const OwnerTable> resolve(core::RegionMap map);

  /// Stamps the message with self's next sequence number and sends it with
  /// ack/retransmit tracking.
  void send_reliable(std::uint32_t self, std::uint32_t to, Message message);
  void arm_retransmit(std::uint32_t self, std::uint64_t seq);
  void on_retransmit_timer(std::uint32_t self, std::uint64_t seq);
  void drop_pending(std::uint32_t self);

  anu::Clock& clock_;
  Transport& network_;
  ProtocolConfig config_;
  LatencyModel latency_model_;
  HashFamily family_;
  Xoshiro256 retry_rng_;
  std::vector<Node> nodes_;
  std::vector<HeartbeatView> views_;  // one per node (heartbeat mode)
  std::vector<std::string> file_sets_;
  std::vector<core::ProbePoints> probe_points_;  // per file set
  std::shared_ptr<const OwnerTable> last_resolved_;
  std::uint64_t published_ = 0;
  std::uint64_t tables_requested_ = 0;
  std::uint64_t tables_resolved_ = 0;
  std::uint64_t reliable_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t retries_abandoned_ = 0;
  anu::PeriodicTimer ticker_;
  std::unique_ptr<anu::PeriodicTimer> heartbeat_ticker_;
};

}  // namespace anu::proto
