#include "driver/balancer_factory.h"

#include "balance/prescient.h"
#include "balance/simple_random.h"
#include "common/assert.h"
#include "common/parse_number.h"

namespace anu::driver {

std::unique_ptr<balance::LoadBalancer> make_balancer(
    const SystemConfig& config, std::size_t server_count) {
  switch (config.kind) {
    case SystemKind::kSimpleRandom:
      return std::make_unique<balance::SimpleRandomBalancer>(
          server_count, config.simple_hash_seed);
    case SystemKind::kDynPrescient:
      return std::make_unique<balance::PrescientBalancer>(server_count);
    case SystemKind::kVirtualProcessor:
      return std::make_unique<balance::VirtualProcessorBalancer>(config.vp,
                                                                 server_count);
    case SystemKind::kAnu:
      return std::make_unique<core::AnuBalancer>(config.anu, server_count);
    case SystemKind::kJsqD:
      return std::make_unique<balance::JsqDBalancer>(config.jsq,
                                                     server_count);
    case SystemKind::kJoinIdleQueue:
      return std::make_unique<balance::JoinIdleQueueBalancer>(config.jiq,
                                                              server_count);
    case SystemKind::kRedundancyD:
      return std::make_unique<balance::RedundancyDBalancer>(config.red,
                                                            server_count);
  }
  ANU_ENSURE(false && "unknown system kind");
  return nullptr;
}

std::string system_label(SystemKind kind) {
  switch (kind) {
    case SystemKind::kSimpleRandom: return "simple-random";
    case SystemKind::kDynPrescient: return "dyn-prescient";
    case SystemKind::kVirtualProcessor: return "virtual-processor";
    case SystemKind::kAnu: return "anu";
    case SystemKind::kJsqD: return "jsq-d";
    case SystemKind::kJoinIdleQueue: return "jiq";
    case SystemKind::kRedundancyD: return "redundancy-d";
  }
  return "?";
}

std::optional<SystemKind> parse_system_kind(std::string_view name) {
  if (name == "simple" || name == "random") return SystemKind::kSimpleRandom;
  if (name == "prescient") return SystemKind::kDynPrescient;
  if (name == "vp") return SystemKind::kVirtualProcessor;
  if (name == "jsqd" || name == "jsq") return SystemKind::kJsqD;
  if (name == "redundancy" || name == "red") return SystemKind::kRedundancyD;
  return parse_name(name, SystemKind::kRedundancyD, system_label);
}

}  // namespace anu::driver
