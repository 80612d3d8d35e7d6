// Lint fixture (never compiled): the protocol including the simulator that
// drives it. src/proto sees only anu::Clock and proto::Transport, so the
// sim/ include must be flagged [layering]; the commented-out runtime/
// include and the common/ include must not be.
#include "common/clock.h"
#include "sim/simulation.h"
// #include "runtime/realtime_clock.h"

void uses_the_kernel(anu::sim::Simulation& sim) { sim.run_to_completion(); }
