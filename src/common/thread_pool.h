// Parallel batches of independent jobs.
//
// run_indexed runs one batch on its calling thread plus up to
// parallelism-1 helper threads. Every participant claims indices from one
// atomic counter, and the call joins each helper before it returns, so no
// thread outlives its batch. The jobs are whole simulations (a millisecond
// or more each) or the pieces of one workload synthesis: one file set's
// stream (tens to hundreds of microseconds) or one time bucket of its
// layout (a few microseconds, a thousand to a batch). Either way one shared
// index schedules them as well as work stealing would, and starting a
// helper (tens of microseconds) is small next to a batch.
//
// Helpers come from one process-wide budget of hardware_concurrency() - 1
// live threads. A batch that finds the budget used up runs on its caller,
// in index order. That is what a nested batch (a job that itself fans out)
// gets while its parent holds the helpers, so nesting can neither deadlock
// nor run more jobs at once than there are cores.
//
// The first exception a job throws is rethrown on the caller after every
// helper has joined; an index claimed after the failure is flagged is
// never run. Determinism is the caller's contract: jobs must not share
// mutable state, so results are a pure function of the job list,
// independent of the parallelism level — see driver::run_indexed and the
// (base_seed, task_index) RNG substream convention in common/rng.h.
//
// Locking discipline is machine-checked: the error slot carries
// ANU_GUARDED_BY and the clang CI legs compile with -Wthread-safety
// -Werror (docs/static-analysis.md); the TSan CI leg runs the pool suite
// under ThreadSanitizer.
#pragma once

#include <cstddef>
#include <functional>

namespace anu {

/// Runs fn(i) for every i in [0, count) on the caller and at most
/// parallelism-1 helpers (0 = as many as the budget allows), and returns
/// once every helper has joined. parallelism == 1, or a batch that gets no
/// helper, runs inline in index order. If any call throws, the first
/// exception is rethrown here and indices claimed after it are not run.
/// A helper thread that cannot be started leaves the batch with fewer
/// helpers.
void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn,
                 std::size_t parallelism = 0);

}  // namespace anu
