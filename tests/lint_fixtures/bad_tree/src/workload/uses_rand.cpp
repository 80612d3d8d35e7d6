// Lint fixture (never compiled): ambient RNG in the workload generator,
// whose draws decide every request of a run. tools/anu_lint.py must flag
// the line below with [raw-rng].
#include <cstdlib>

double bad_interarrival() {
  return static_cast<double>(std::rand()) / RAND_MAX;
}
