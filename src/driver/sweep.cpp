#include "driver/sweep.h"

#include "common/thread_pool.h"

namespace anu::driver {

void run_indexed(std::size_t count,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t threads) {
  anu::run_indexed(count, fn, threads);
}

}  // namespace anu::driver
