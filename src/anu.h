// libanu — umbrella header.
//
// Pulls in the full public API: the ANU balancer and its substrates, the
// baseline systems, the cluster simulator, the realtime runtime, workload
// generators, metrics and the experiment driver. Include the individual
// headers instead when compile time matters; they are all self-contained.
//
//   #include "anu.h"
//   anu::core::AnuBalancer balancer(anu::core::AnuConfig{}, 5);
#pragma once

#include "balance/balancer.h"          // IWYU pragma: export
#include "balance/chord_ring.h"        // IWYU pragma: export
#include "balance/join_idle_queue.h"   // IWYU pragma: export
#include "balance/jsq_d.h"             // IWYU pragma: export
#include "balance/prescient.h"         // IWYU pragma: export
#include "balance/redundancy_d.h"      // IWYU pragma: export
#include "balance/simple_random.h"     // IWYU pragma: export
#include "balance/virtual_processor.h" // IWYU pragma: export
#include "cluster/cluster.h"           // IWYU pragma: export
#include "cluster/failure_schedule.h"  // IWYU pragma: export
#include "common/clock.h"              // IWYU pragma: export
#include "common/stats.h"              // IWYU pragma: export
#include "common/types.h"              // IWYU pragma: export
#include "common/unit_point.h"         // IWYU pragma: export
#include "core/anu_balancer.h"         // IWYU pragma: export
#include "core/placement.h"            // IWYU pragma: export
#include "core/region_map.h"           // IWYU pragma: export
#include "core/tuner.h"                // IWYU pragma: export
#include "driver/balancer_factory.h"   // IWYU pragma: export
#include "driver/experiment.h"         // IWYU pragma: export
#include "driver/matrix.h"             // IWYU pragma: export
#include "driver/paper.h"              // IWYU pragma: export
#include "hash/hash_family.h"          // IWYU pragma: export
#include "metrics/consistency.h"       // IWYU pragma: export
#include "proto/protocol.h"            // IWYU pragma: export
#include "proto/transport.h"           // IWYU pragma: export
#include "proto/wire.h"                // IWYU pragma: export
#include "runtime/event_loop.h"        // IWYU pragma: export
#include "runtime/realtime_clock.h"    // IWYU pragma: export
#include "runtime/time_source.h"       // IWYU pragma: export
#include "runtime/udp_transport.h"     // IWYU pragma: export
#include "sim/simulation.h"            // IWYU pragma: export
#include "workload/synthetic.h"        // IWYU pragma: export
#include "workload/trace.h"            // IWYU pragma: export
