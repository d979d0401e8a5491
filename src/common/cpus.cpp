#include "common/cpus.hpp"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace lft {

int usable_cpus() noexcept {
#ifdef CPU_COUNT
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) return std::max(1, CPU_COUNT(&mask));
#endif
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

}  // namespace lft
