#include "sim/fleet.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace lft::sim {

// ---- Handle ----------------------------------------------------------------

struct FleetRunner::Handle::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Report report;
};

bool FleetRunner::Handle::ready() const {
  LFT_ASSERT(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

const Report& FleetRunner::Handle::wait() const {
  LFT_ASSERT(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->report;
}

Report FleetRunner::Handle::take() {
  LFT_ASSERT(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return std::move(state_->report);
}

// ---- FleetRunner -----------------------------------------------------------

struct FleetRunner::Task {
  FleetJobObs job;
  std::shared_ptr<Handle::State> state;
};

/// One execution slot: its run queue (guarded by the runner's mutex), the
/// scratch its instances recycle, and the metric registry its instances
/// record into (both touched only by the thread running the slot's current
/// instance, outside the lock; the registry is read by telemetry() once the
/// fleet has drained).
struct FleetRunner::Worker {
  std::deque<Task> queue;
  EngineScratch scratch;
  obs::Registry registry;
};

FleetRunner::FleetRunner(FleetConfig config) : config_(config) {
  config_.threads = std::clamp(config_.threads, 1, 64);
  const auto workers = static_cast<std::size_t>(config_.threads);
  workers_.reserve(workers);
  for (std::size_t k = 0; k < workers; ++k) workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(workers);
  for (std::size_t k = 0; k < workers; ++k) {
    threads_.emplace_back([this, k] { worker_loop(k); });
  }
}

FleetRunner::~FleetRunner() {
  wait_all();  // drain: every submitted instance still runs
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

FleetRunner::Handle FleetRunner::submit(FleetJob job) {
  LFT_ASSERT(job != nullptr);
  return submit(FleetJobObs(
      [job = std::move(job)](EngineScratch* scratch, obs::Registry*) { return job(scratch); }));
}

FleetRunner::Handle FleetRunner::submit(FleetJobObs job) {
  LFT_ASSERT(job != nullptr);
  Handle handle;
  handle.state_ = std::make_shared<Handle::State>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    LFT_ASSERT_MSG(!stop_, "submit after shutdown");
    // Deal round-robin; imbalance (short vs long executions) is fixed up by
    // stealing, not by smarter placement.
    workers_[next_queue_]->queue.push_back(Task{std::move(job), handle.state_});
    next_queue_ = (next_queue_ + 1) % workers_.size();
    ++submitted_;
  }
  cv_work_.notify_one();
  return handle;
}

void FleetRunner::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return completed_ == submitted_; });
}

int FleetRunner::threads() const noexcept { return config_.threads; }

std::int64_t FleetRunner::submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_;
}

std::int64_t FleetRunner::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

std::int64_t FleetRunner::stolen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stolen_;
}

std::int64_t FleetRunner::scratch_adoptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scratch_adoptions_;
}

std::int64_t FleetRunner::scratch_recycles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scratch_recycles_;
}

obs::Snapshot FleetRunner::telemetry() const {
  std::lock_guard<std::mutex> lock(mu_);
  LFT_ASSERT_MSG(completed_ == submitted_,
                 "telemetry() while instances are running — call wait_all() first");
  obs::Snapshot merged;
  for (const auto& worker : workers_) merged.merge_from(worker->registry.snapshot());
  return merged;
}

bool FleetRunner::pop_task(std::size_t slot, Task& out) {
  auto& own = workers_[slot]->queue;
  if (!own.empty()) {
    out = std::move(own.front());
    own.pop_front();
    return true;
  }
  // Steal from the back of the longest peer queue: the busiest slot sheds
  // its most-recently-dealt work, so FIFO start order is preserved where it
  // matters least and the tail drains in parallel. Ties go to the lowest
  // slot index.
  std::size_t victim = slot;
  std::size_t longest = 0;
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    if (k == slot) continue;
    const std::size_t len = workers_[k]->queue.size();
    if (len > longest) {
      longest = len;
      victim = k;
    }
  }
  if (longest == 0) return false;
  auto& theirs = workers_[victim]->queue;
  out = std::move(theirs.back());
  theirs.pop_back();
  ++stolen_;
  return true;
}

void FleetRunner::worker_loop(std::size_t slot) {
  EngineScratch* scratch = config_.reuse_scratch ? &workers_[slot]->scratch : nullptr;
  obs::Registry* registry = config_.telemetry ? &workers_[slot]->registry : nullptr;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    Task task;
    if (pop_task(slot, task)) {
      lock.unlock();
      Report report;
      try {
        report = task.job(scratch, registry);
      } catch (...) {
        // A throwing job yields a default Report (completed == false); the
        // pool and every other instance keep running, and the handle is
        // still fulfilled so nobody blocks on a dead instance.
        report = Report{};
      }
      {
        std::lock_guard<std::mutex> state_lock(task.state->mu);
        task.state->report = std::move(report);
        task.state->done = true;
      }
      task.state->cv.notify_all();
      task.job = nullptr;  // release captures outside the runner lock
      lock.lock();
      if (scratch != nullptr) {
        // Fold the slot's scratch counters (touched only by the thread that
        // ran the instance) into the runner totals while holding the lock.
        scratch_adoptions_ += scratch->adoptions;
        scratch_recycles_ += scratch->recycles;
        scratch->adoptions = 0;
        scratch->recycles = 0;
      }
      ++completed_;
      if (completed_ == submitted_) cv_idle_.notify_all();
      continue;
    }
    if (stop_) return;
    cv_work_.wait(lock);
  }
}

}  // namespace lft::sim
