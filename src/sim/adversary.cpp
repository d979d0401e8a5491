#include "sim/adversary.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace lft::sim {

std::vector<CrashEvent> isolation_crash_schedule(const graph::Graph& overlay, NodeId victim,
                                                 std::int64_t t) {
  std::vector<CrashEvent> events;
  if (t <= 0) return events;
  for (NodeId w : overlay.neighbors(victim)) {
    if (static_cast<std::int64_t>(events.size()) >= t) break;
    events.push_back(CrashEvent{0, w, 0.0});
  }
  return events;
}

ProbeDisruptorAdversary::ProbeDisruptorAdversary(std::int64_t budget, int per_round,
                                                 Round first_round)
    : budget_(budget), per_round_(per_round), first_round_(first_round) {}

void ProbeDisruptorAdversary::on_round(const EngineView& view, FaultController& control) {
  if (view.round() < first_round_ || budget_ <= 0) return;

  pending_.resize(static_cast<std::size_t>(view.num_nodes()), 0);
  for (const Message& m : view.pending_sends()) {
    const auto from = static_cast<std::size_t>(m.from);
    if (pending_[from] == 0) touched_.push_back(m.from);
    ++pending_[from];
  }
  // `touched_` doubles as the candidate list: crashable senders first (the
  // partition keeps dead senders around so their counters still get reset),
  // busiest first within the candidates.
  const auto candidates_end = std::partition(touched_.begin(), touched_.end(), [&](NodeId v) {
    return view.alive(v) && !view.halted(v);
  });
  std::sort(touched_.begin(), candidates_end, [&](NodeId a, NodeId b) {
    const auto pa = pending_[static_cast<std::size_t>(a)];
    const auto pb = pending_[static_cast<std::size_t>(b)];
    return pa != pb ? pa > pb : a < b;
  });
  const auto num_candidates = static_cast<int>(candidates_end - touched_.begin());
  for (int i = 0; i < per_round_ && i < num_candidates && budget_ > 0; ++i) {
    control.crash(touched_[static_cast<std::size_t>(i)]);
    --budget_;
  }
  for (const NodeId v : touched_) pending_[static_cast<std::size_t>(v)] = 0;
  touched_.clear();
}

}  // namespace lft::sim
