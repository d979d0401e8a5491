// Execution options shared by every protocol runner (run_system, run_gossip,
// run_checkpointing, run_ab_consensus_plan) and by the scenario registry's
// runner signatures. One struct instead of a trailing-default-parameter tail:
// call sites name only the knobs they set, and adding an engine knob no
// longer touches every runner signature in the tree.
//
// None of these options changes any Report bit — they select *how* an
// execution runs (round cap, stepper parallelism, buffer recycling, trace
// recording), never what it computes.
#pragma once

#include "common/types.hpp"

namespace lft::obs {
class Registry;
}  // namespace lft::obs

namespace lft::sim {
struct EngineScratch;
class TraceSink;
}  // namespace lft::sim

namespace lft::core {

/// Per-execution knobs, defaulting to a cold serial untraced run.
struct RunOptions {
  /// Safety cap on executed rounds; Report::completed is false when hit.
  Round max_rounds = Round{1} << 22;
  /// Worker threads for the engine's deterministic parallel stepper;
  /// 1 = serial. Reports are bit-identical for every value.
  int threads = 1;
  /// Optional recycled engine buffers (fleet mode); non-owning, may back at
  /// most one live engine at a time. nullptr = allocate fresh.
  sim::EngineScratch* scratch = nullptr;
  /// Optional per-round digest hook (forensics plane); non-owning. nullptr
  /// records nothing and keeps the delivery hot path untouched.
  sim::TraceSink* trace = nullptr;
  /// Optional telemetry registry (forwarded to EngineConfig::telemetry):
  /// when set, the engine records per-round `lft_engine_*` metrics into it,
  /// strictly out-of-band. Like every other option, it never changes a
  /// Report bit. Non-owning; nullptr records nothing.
  obs::Registry* telemetry = nullptr;
};

}  // namespace lft::core
