// The library's one count of usable CPUs. Thread fan-outs (the engine's
// parallel stepper, the overlay batch) size themselves by the CPUs the
// calling thread may run on, not by the machine's core count: a process
// confined by taskset, a cgroup cpuset or sched_setaffinity sees only its
// own share, so it never starts more busy threads than it has CPUs.
#pragma once

namespace lft {

/// CPUs in the calling thread's affinity mask (sched_getaffinity), or
/// std::thread::hardware_concurrency() where the mask is unavailable;
/// always >= 1. Threads inherit the mask of the thread that started them.
[[nodiscard]] int usable_cpus() noexcept;

}  // namespace lft
