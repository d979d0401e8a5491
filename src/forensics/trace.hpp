// Forensics trace container + codec: a recorded execution as the sequence
// of per-round RoundDigests the engine emits through sim::TraceSink, plus
// the metadata needed to re-execute it (scenario name, seed, shape) and the
// final Report fingerprint. Traces serialize to a compact, versioned binary
// frame over common/codec (varint-packed — fault-free rounds cost a few
// bytes each) so sweeps can archive repro traces cheaply; decoding is
// bounds-checked and returns nullopt on any malformed input.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/trace.hpp"

namespace lft::forensics {

/// What it takes to re-execute a recorded run: the scenario registry name
/// and the (seed, n, t) shape handed to Scenario::run_at. `threads` records
/// what the original run asked for (0 = the engine's derived default) —
/// replays may use any value, since digests are thread-invariant.
struct TraceMeta {
  std::string scenario;
  std::uint64_t seed = 0;
  NodeId n = 0;
  std::int64_t t = 0;
  std::int32_t threads = 1;
};

/// One recorded execution: metadata, every round's digest in round order,
/// and the final Report fingerprint (scenarios::fingerprint).
struct Trace {
  TraceMeta meta;
  std::vector<sim::RoundDigest> rounds;
  std::uint64_t report_fingerprint = 0;

  [[nodiscard]] bool operator==(const Trace& other) const;
};

/// Collects the engine's per-round digests into a Trace. Install via
/// EngineConfig::trace (or any runner's trailing `trace` parameter), run,
/// then read/take the trace and fill in metadata + fingerprint.
class TraceRecorder final : public sim::TraceSink {
 public:
  void on_round(const sim::RoundDigest& digest) override { trace_.rounds.push_back(digest); }

  [[nodiscard]] Trace& trace() noexcept { return trace_; }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] Trace take() noexcept { return std::move(trace_); }

 private:
  Trace trace_;
};

/// Serializes a trace into the versioned binary frame (see docs/forensics.md
/// for the layout).
[[nodiscard]] std::vector<std::byte> encode_trace(const Trace& trace);

/// Decodes a frame produced by encode_trace; nullopt on bad magic, an
/// unsupported version, or truncated/malformed input.
[[nodiscard]] std::optional<Trace> decode_trace(std::span<const std::byte> bytes);

/// File round-trip helpers. save_trace returns false on IO failure;
/// load_trace returns nullopt on IO failure or malformed content.
[[nodiscard]] bool save_trace(const Trace& trace, const std::string& path);
[[nodiscard]] std::optional<Trace> load_trace(const std::string& path);

}  // namespace lft::forensics
