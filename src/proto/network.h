// Simulated message-passing network for the control protocol — the
// sim-side implementation of the Transport interface (transport.h).
//
// Point-to-point delivery with configurable base latency, per-byte cost and
// deterministic jitter. Messages to a down node are dropped silently (the
// failure model the delegate protocol must tolerate). Per-pair FIFO
// ordering holds as long as jitter cannot reorder (jitter is bounded below
// 2x base delay by construction); the protocol is written to tolerate
// reordering anyway via round/version numbers and the ack/retransmit layer.
//
// An optional faults::FaultPlan injects adversarial conditions per message:
// probabilistic loss, duplication, bounded reordering, delay spikes and
// link partitions (docs/chaos.md). The plan owns its own RNG stream, so
// attaching one never perturbs the network's jitter stream.
//
// Byte accounting: bytes_sent() charges only messages actually transmitted.
// A message dropped at send time because an endpoint is down never hits the
// wire and is not charged; a message lost in transit (injected loss, or the
// receiver failing mid-flight) consumed bandwidth and is. Drops are split
// by cause: drops_endpoint_down() vs drops_injected().
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "faults/fault_plan.h"
#include "proto/messages.h"
#include "proto/transport.h"

namespace anu::proto {

struct NetworkConfig {
  /// One-way base delay, seconds (LAN-ish default).
  double base_delay = 0.001;
  /// Seconds per byte of payload (1 Gb/s-ish default).
  double per_byte = 8e-9;
  /// Multiplicative jitter amplitude in [0, 1): delay is scaled by a
  /// deterministic factor in [1, 1 + jitter).
  double jitter = 0.2;
  std::uint64_t seed = 0x6e6574ULL;
};

class Network final : public Transport {
 public:
  /// The clock models delivery delay: any anu::Clock works, so the same
  /// Network runs under the simulator (sim::Simulation — the usual case) or
  /// a realtime clock (tests of the runtime stack reuse it as a faultable
  /// in-process transport).
  Network(anu::Clock& clock, const NetworkConfig& config,
          std::size_t node_count);

  /// Registers the receive handler of one node.
  void attach(std::uint32_t node, Handler handler) override;

  /// Marks a node down/up; messages to (and from) down nodes are dropped.
  void set_node_up(std::uint32_t node, bool up) override;
  [[nodiscard]] bool node_up(std::uint32_t node) const override;

  /// Attaches a fault-injection plan consulted once per send. Null detaches
  /// (the default: a clean network). Caller-owned; must outlive the run.
  void set_fault_plan(faults::FaultPlan* plan) { faults_ = plan; }
  [[nodiscard]] faults::FaultPlan* fault_plan() const { return faults_; }

  /// Sends a message; delivery is scheduled after the modelled delay.
  void send(std::uint32_t from, std::uint32_t to, Message message) override;

  /// Transmissions accepted onto the wire (includes injected duplicates).
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  /// All drops, any cause.
  [[nodiscard]] std::uint64_t messages_dropped() const {
    return dropped_endpoint_ + dropped_injected_;
  }
  /// Drops because a node was down: at send time (never transmitted) or at
  /// delivery time (receiver failed mid-flight).
  [[nodiscard]] std::uint64_t drops_endpoint_down() const {
    return dropped_endpoint_;
  }
  /// Drops injected by the fault plan (loss or partition cut).
  [[nodiscard]] std::uint64_t drops_injected() const {
    return dropped_injected_;
  }
  /// Extra copies delivered through injected duplication.
  [[nodiscard]] std::uint64_t duplicates_injected() const {
    return duplicates_;
  }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }
  [[nodiscard]] std::size_t node_count() const override {
    return handlers_.size();
  }

 private:
  void transmit(std::uint32_t from, std::uint32_t to, const Message& message,
                std::size_t size, double extra_delay);

  anu::Clock& clock_;
  NetworkConfig config_;
  Xoshiro256 rng_;
  faults::FaultPlan* faults_ = nullptr;
  std::vector<Handler> handlers_;
  std::vector<bool> up_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_endpoint_ = 0;
  std::uint64_t dropped_injected_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace anu::proto
