// Lint fixture (never compiled): the event kernel including the cluster
// model that runs on it. src/sim includes only common/ and sim/ project
// headers, so the cluster/ include must be flagged [layering]; the system,
// common/ and sim/ includes and the commented-out driver/ one must not be.
#include <vector>

#include "cluster/server.h"
#include "common/clock.h"
#include "sim/event_queue.h"
// #include "driver/request_loop.h"

std::size_t uses_the_cluster(const anu::cluster::Server& server) {
  return server.queue_length();
}
