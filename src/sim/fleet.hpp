// Fleet mode: instance-multiplexed execution of many independent protocol
// runs over one shared engine core.
//
// The paper's headline is per-execution linearity; the simulator's job at
// production scale is *aggregate throughput* — hundreds to thousands of
// executions (each its own node set, fault plan, seed, and Report) swept
// across seeds, sizes, and fault plans. FleetRunner multiplexes those
// instances over a shared worker pool:
//
//   * one persistent pool of `threads` workers shared by every instance;
//   * per-worker recycled EngineScratch (message vectors + payload-arena
//     chunks), so the k-th instance on a slot reaches the engine's
//     zero-allocation steady state without re-growing its buffers;
//   * per-worker run queues with work-stealing: submissions are dealt
//     round-robin, a worker that drains its own queue steals from the
//     busiest peer, so short executions retire early and free their slot
//     for queued ones instead of idling behind a long tail;
//   * per-instance message namespaces for free — every instance owns a
//     private Engine (nodes, arenas, fault plane, metrics), so nothing an
//     instance does can alias another instance's messages or state.
//
// Determinism: each instance runs its engine serially (a worker resolves the
// default EngineConfig::threads to 1), so its Report is bit-identical to
// running the same (scenario, plan, seed) alone in a plain loop — regardless
// of fleet concurrency, submission order, or which worker executed it. Only
// the *completion order* of handles is nondeterministic. Scratch adoption is a
// capacity cache and never changes a Report bit (asserted in
// tests/test_fleet.cpp).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace lft::sim {

/// Fleet-pool configuration.
struct FleetConfig {
  /// Worker threads executing instances; clamped to [1, 64]. Each worker
  /// runs one instance at a time, serially.
  int threads = 1;
  /// Recycle per-worker EngineScratch across the instances a worker runs
  /// (pass the slot's scratch to each job). Purely a capacity cache;
  /// disable to give every instance cold buffers.
  bool reuse_scratch = true;
  /// Hand each telemetry-aware job (the two-argument submit overload) its
  /// slot's obs::Registry; FleetRunner::telemetry() merges the per-slot
  /// registries after the fleet drains. Off (nullptr handed out) by
  /// default — telemetry never changes a Report bit either way.
  bool telemetry = false;
};

/// One queued execution. The job builds, runs, and evaluates a complete
/// instance and returns its Report. `scratch` is the executing slot's
/// recycled buffer set (hand it to EngineConfig::scratch), or nullptr when
/// FleetConfig::reuse_scratch is off; a job is free to ignore it. Jobs run
/// concurrently with other jobs, so they must not touch shared mutable
/// state — every shipped protocol runner already satisfies this. A job
/// that throws yields a default Report (completed == false) through its
/// handle; the pool keeps running.
using FleetJob = std::function<Report(EngineScratch* scratch)>;

/// Telemetry-aware job: additionally receives the executing slot's metric
/// registry (single-writer: only the instance currently running on that
/// slot records into it), or nullptr when FleetConfig::telemetry is off.
/// Hand it to core::RunOptions::telemetry / EngineConfig::telemetry.
using FleetJobObs = std::function<Report(EngineScratch* scratch, obs::Registry* telemetry)>;

/// Runs queued instances over a shared worker pool (see file comment).
/// Thread-safe: submit/wait may be called from any thread. The destructor
/// drains the queue (every submitted job still runs) before joining.
class FleetRunner {
 public:
  /// Future-like handle to one submitted instance's Report. Handles are
  /// cheap shared references; copying one does not duplicate the execution.
  class Handle {
   public:
    Handle() = default;
    /// False for a default-constructed handle.
    [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
    /// True once the instance finished (never blocks).
    [[nodiscard]] bool ready() const;
    /// Blocks until the instance finished; returns its Report. Valid for
    /// the lifetime of the handle (the state is shared, not runner-owned).
    [[nodiscard]] const Report& wait() const;
    /// Blocks, then moves the Report out (at most once per instance).
    [[nodiscard]] Report take();

   private:
    friend class FleetRunner;
    struct State;
    std::shared_ptr<State> state_;
  };

  explicit FleetRunner(FleetConfig config);
  /// Drains every queued instance, then joins the pool.
  ~FleetRunner();
  FleetRunner(const FleetRunner&) = delete;
  FleetRunner& operator=(const FleetRunner&) = delete;

  /// Enqueues one instance; it starts as soon as a worker frees up.
  Handle submit(FleetJob job);
  /// Telemetry-aware overload (see FleetJobObs).
  Handle submit(FleetJobObs job);
  /// Blocks until every instance submitted so far has completed.
  void wait_all();

  /// Merge of every slot's metric registry (counter add, gauge max,
  /// histogram merge) — per-instance engine telemetry aggregated across the
  /// whole fleet. Call after wait_all(): slots record outside the runner
  /// lock while instances run. Empty when FleetConfig::telemetry is off.
  [[nodiscard]] obs::Snapshot telemetry() const;

  /// Actual worker count (config clamped).
  [[nodiscard]] int threads() const noexcept;
  /// Instances submitted / completed so far.
  [[nodiscard]] std::int64_t submitted() const;
  [[nodiscard]] std::int64_t completed() const;
  /// Instances a worker stole from another worker's queue.
  [[nodiscard]] std::int64_t stolen() const;
  /// EngineScratch observability across completed instances: engines that
  /// adopted a slot's scratch, and adoptions that found warm buffers from a
  /// previous instance in that slot (see EngineScratch counters). Both are 0
  /// when FleetConfig::reuse_scratch is off or jobs ignore their scratch.
  /// A slot's counters are folded in just before its instance counts as
  /// completed, so these are exact after wait_all() (an instance's handle
  /// becomes ready slightly before its fold — don't read stats off a bare
  /// handle wait).
  [[nodiscard]] std::int64_t scratch_adoptions() const;
  [[nodiscard]] std::int64_t scratch_recycles() const;

 private:
  struct Task;
  struct Worker;

  void worker_loop(std::size_t slot);
  /// Pops this worker's next task, stealing from the busiest peer when its
  /// own queue is empty. Caller holds mu_. Returns false when idle.
  bool pop_task(std::size_t slot, Task& out);

  FleetConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  // workers park here when idle
  std::condition_variable cv_idle_;  // wait_all / the destructor park here
  std::size_t next_queue_ = 0;       // round-robin dealing cursor
  std::int64_t submitted_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t stolen_ = 0;
  std::int64_t scratch_adoptions_ = 0;  // folded from per-slot counters
  std::int64_t scratch_recycles_ = 0;   // after each completed instance
  bool stop_ = false;
};

}  // namespace lft::sim
