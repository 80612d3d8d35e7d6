// Constructs any selectable load-management system by name: the paper's
// four (§5.1) plus the modern randomized-dispatch baselines
// (docs/strategies.md).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "balance/balancer.h"
#include "balance/join_idle_queue.h"
#include "balance/jsq_d.h"
#include "balance/redundancy_d.h"
#include "balance/virtual_processor.h"
#include "core/anu_balancer.h"

namespace anu::driver {

enum class SystemKind {
  kSimpleRandom,
  kDynPrescient,
  kVirtualProcessor,
  kAnu,
  kJsqD,
  kJoinIdleQueue,
  kRedundancyD,
};

/// Every selectable system: the paper's four in presentation order, then
/// the dispatch baselines. --compare and the scenario matrix iterate this.
inline constexpr SystemKind kAllSystems[] = {
    SystemKind::kSimpleRandom,     SystemKind::kDynPrescient,
    SystemKind::kVirtualProcessor, SystemKind::kAnu,
    SystemKind::kJsqD,             SystemKind::kJoinIdleQueue,
    SystemKind::kRedundancyD};

struct SystemConfig {
  SystemKind kind = SystemKind::kAnu;
  core::AnuConfig anu;
  balance::VirtualProcessorConfig vp;
  std::uint64_t simple_hash_seed = 0x73696d706c65ULL;
  balance::JsqDConfig jsq;
  balance::JiqConfig jiq;
  balance::RedundancyDConfig red;
};

[[nodiscard]] std::unique_ptr<balance::LoadBalancer> make_balancer(
    const SystemConfig& config, std::size_t server_count);

[[nodiscard]] std::string system_label(SystemKind kind);

/// Parses a system name as accepted by config files (`system <name>`) and
/// the anu_sim --strategy flag: the labels system_label prints
/// (simple-random, dyn-prescient, virtual-processor, anu, jsq-d, jiq,
/// redundancy-d) and the short forms simple, random, prescient, vp, jsqd,
/// jsq, redundancy and red.
[[nodiscard]] std::optional<SystemKind> parse_system_kind(
    std::string_view name);

}  // namespace anu::driver
