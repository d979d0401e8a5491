// The service's ordering engine: each commit slot is one fault-free
// Few-Crashes-Consensus execution (Figure 3) over the replica group, every
// input 1 ("commit the pending batch"). The slot is seed-independent by
// construction, and a live slot is stepped by sim::Engine itself over the
// same in-process Processes a simulation runs, so a trace recorded from a
// live slot replays bit-for-bit against the registered
// "service_slot_commit" scenario: the bridge that puts live service bugs in
// reach of the forensics plane (lft_forensics replay / shrink).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/io.hpp"
#include "core/run_options.hpp"
#include "sim/engine.hpp"

namespace lft::service {

/// Default replica group shape: 7 replicas tolerating 1 crash.
inline constexpr NodeId kDefaultGroupSize = 7;
inline constexpr std::int64_t kDefaultFaultBudget = 1;

/// The scenario registry name live slot traces carry in their metadata —
/// what lets `lft_forensics replay` re-execute them under the engine.
inline constexpr const char* kSlotScenarioName = "service_slot_commit";

/// Verdict of one slot.
struct SlotOutcome {
  sim::Report report;
  bool committed = false;  ///< completed and every replica decided 1
};

[[nodiscard]] SlotOutcome evaluate_slot(sim::Report report);

/// The reference execution: the same slot as a fresh run_system call,
/// fault-free: Few-Crashes-Consensus at ConsensusParams::practical(n, t),
/// every node's input 1. SlotContext's pooled slots must match it bit for
/// bit (Report and trace digests) — the equivalence the twin tests pin down
/// and the forensics replay path depends on.
[[nodiscard]] SlotOutcome run_slot_on_engine(NodeId n, std::int64_t t,
                                             const core::RunOptions& options = {});

/// A pooled slot execution context: the consensus Processes and the engine
/// buffers for one slot, reusable across slots. begin() *resets* the pooled
/// StageProcesses instead of reconstructing them and builds a fresh
/// sim::Engine over them that adopts this context's EngineScratch, so every
/// slot reuses the last one's message buffers. A reset context executes
/// bit-identically to a freshly built one — the pooled-slot twin tests pin
/// this down.
class SlotContext {
 public:
  SlotContext(NodeId n, std::int64_t t) : n_(n), t_(t) {}
  SlotContext(const SlotContext&) = delete;
  SlotContext& operator=(const SlotContext&) = delete;

  /// Prepares a fresh slot execution, recording digests into `trace` when
  /// non-null. Must be called before the first step() of every slot.
  void begin(sim::TraceSink* trace = nullptr);

  /// Advances one lock-step consensus round; false once the slot finished.
  [[nodiscard]] bool step() { return engine_->step(); }

  /// Evaluates the finished slot. Call after step() returns false.
  [[nodiscard]] SlotOutcome finish() const { return evaluate_slot(engine_->finish()); }

 private:
  NodeId n_;
  std::int64_t t_;
  /// The pooled Processes, built on the first begin().
  std::vector<std::unique_ptr<core::StageProcess>> processes_;
  sim::EngineScratch scratch_;
  /// Declared last so it is destroyed first: it borrows everything above.
  std::optional<sim::Engine> engine_;
};

}  // namespace lft::service
