// Redundancy-d dispatch: replicate each request to d servers, keep the
// winner, cancel the rest.
//
// The product-form redundancy scheme of van der Boor, Borst, van
// Leeuwaarden & Comte (PAPERS.md): replication turns per-request server
// choice into a race, so the request experiences the minimum of d queues
// without the dispatcher reading any queue state at all. Cancellation
// timing is the key design axis:
//
//   cancel-on-start    — the first replica to *enter service* kills its
//                        siblings; no service capacity is ever wasted
//                        (equivalent to late binding / sparrow-style
//                        batch sampling).
//   cancel-on-complete — replicas race to the finish; losers may burn
//                        real service time (visible in utilization), in
//                        exchange for hedging against slow servers
//                        mid-service.
//
// The replica race itself (start/completion callbacks, sibling
// cancellation, failure rescue) is run by the experiment driver on top of
// the cluster's cancel-capable job handles; this strategy only picks the
// d targets and the cancel mode.
#pragma once

#include <cstdint>

#include "balance/dispatch_base.h"

namespace anu::balance {

struct RedundancyDConfig {
  /// Replicas per request (clamped to the up-server count at dispatch).
  std::uint32_t d = 2;
  enum class CancelMode : std::uint8_t { kOnStart, kOnComplete };
  CancelMode cancel = CancelMode::kOnComplete;
  /// Draw replica targets speed-weighted instead of uniform.
  bool speed_aware = false;
  std::uint64_t seed = 0x726564ULL;  // "red"
};

/// Names for config files / labels: start | complete.
[[nodiscard]] const char* cancel_mode_name(RedundancyDConfig::CancelMode mode);

class RedundancyDBalancer final : public DispatchBalancer {
 public:
  RedundancyDBalancer(const RedundancyDConfig& config,
                      std::size_t server_count);

  [[nodiscard]] std::string name() const override { return "redundancy-d"; }

  [[nodiscard]] DispatchDecision dispatch(FileSetId id,
                                          double demand) override;

  /// Manifest counters (docs/strategies.md): dispatches,
  /// replicas_requested. The driver adds the race outcomes
  /// (replicas_* counters) next to these.
  [[nodiscard]] BalanceCounters counters() const override;

  [[nodiscard]] const RedundancyDConfig& config() const { return config_; }

 private:
  RedundancyDConfig config_;
  std::uint64_t dispatches_ = 0;
  std::uint64_t replicas_requested_ = 0;
};

}  // namespace anu::balance
