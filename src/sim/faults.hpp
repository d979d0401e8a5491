// The unified fault plane: one adversary API for crash, omission, partition,
// link, and Byzantine faults.
//
// The paper's algorithms are stated against an adaptive adversary; the
// regimes differ only in which actions it may take. A `FaultInjector`
// observes the execution through `EngineView` and applies typed actions
// through `FaultController`:
//   * crash / crash_partial — the paper's crash model (Sections 2-7): a node
//     stops forever; of the sends it produced in its crash round, an
//     arbitrary adversary-chosen subset is still delivered.
//   * send/receive omission — the Dwork-Halpern-Waarts omission regimes: a
//     faulty node keeps running, but messages it sends (send omission) or
//     messages addressed to it (receive omission) are lost in transit.
//   * link cuts and partitions — network faults: a directed link drops every
//     message until healed; a partition drops every message crossing its
//     group boundary until cleared (round-ranged splits + heal/re-merge).
//   * Byzantine takeover — the node's Process is swapped for an injected
//     behavior and the node is marked Byzantine for the honest-communication
//     accounting (Theorem 11's measure).
//   * timing faults — delay rules and the GST knob: matched messages are
//     held in transit and delivered whole at a later round (never lost), the
//     per-message lag drawn from a deterministic content hash. `set_gst`
//     expresses the DLS partially synchronous regime: before the global
//     stabilization time the adversary may hold any message up to GST + Δ,
//     after it every message arrives within Δ rounds.
//
// Injectors fire in two phases each round. `pre_round` runs before nodes are
// stepped: state changes (omission flags, partitions, link cuts, takeovers)
// made here affect the current round's sends. `on_round` runs after sends
// are collected but before delivery — the classical adaptive-crash position,
// where the adversary sees this round's pending sends. All delivery-time
// filtering happens inside the engine's compaction pass, so an armed fault
// plane adds one predictable branch per message and the hot path stays
// allocation-free.
//
// `FaultPlan` is the declarative layer: a data-only schedule of typed fault
// events (composed with fluent builders, including the promoted
// random/burst/staggered crash schedules) that `make_plan_injector` turns
// into a deterministic injector. Scenarios, tests, and benches compose plans
// instead of hand-writing adversary classes.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace lft::sim {

class Engine;
class EngineView;
class FaultController;
struct Message;
class Process;

/// Round value meaning "never" for windowed fault events.
inline constexpr Round kRoundForever = std::numeric_limits<Round>::max();

/// A deterministic fault strategy. Both hooks default to no-ops so a
/// strategy overrides only the phase it needs.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// Before the round's nodes are stepped: omission/partition/link state
  /// changes apply to this round's sends; Byzantine takeovers replace the
  /// victim's Process effective this round. `pending_sends()` is empty here.
  virtual void pre_round(const EngineView& view, FaultController& control) {
    (void)view;
    (void)control;
  }
  /// After sends are collected, before delivery: the adaptive-crash position
  /// (the adversary inspects `pending_sends()` and node states).
  virtual void on_round(const EngineView& view, FaultController& control) {
    (void)view;
    (void)control;
  }
};

/// Applies typed fault actions for the current round. All actions are
/// engine-enforced against the per-class budgets in EngineConfig.
class FaultController {
 public:
  /// Crashes v this round; all of v's pending sends this round are dropped.
  void crash(NodeId v);
  /// Crashes v this round; of v's pending sends this round, those matching
  /// `keep` are still delivered (the classical partial-send crash). `keep`
  /// runs during delivery, possibly on a stepper worker, once per victim
  /// message in send order; it must share no mutable state with another
  /// crash's filter, since two victims' filters may run concurrently. Pure
  /// functions of the message (every in-repo caller's) qualify.
  void crash_partial(NodeId v, std::function<bool(const Message&)> keep);

  /// While enabled, every message v sends is lost in transit (accounted as
  /// sent, never delivered). Enabling any omission flag on a node for the
  /// first time charges the omission budget once.
  void set_send_omission(NodeId v, bool enabled);
  /// While enabled, every message addressed to v is lost in transit.
  void set_recv_omission(NodeId v, bool enabled);

  /// Drops every message a -> b (directed) until healed. Unbudgeted: link
  /// faults model the network, not node failures.
  void cut_link(NodeId a, NodeId b);
  void heal_link(NodeId a, NodeId b);

  /// Installs a partition: `group_of` (size n) assigns each node a group id
  /// and every message crossing groups is dropped until `clear_partition`.
  /// Re-installing replaces the previous partition.
  void set_partition(std::span<const std::uint32_t> group_of);
  void clear_partition();

  /// Byzantine takeover (pre-round phase only): swaps v's Process for
  /// `behavior`, marks v Byzantine for the honest counters, and reactivates
  /// v if it was halted or sleeping. The behavior runs from the current
  /// round on. Charges the Byzantine budget.
  void takeover(NodeId v, std::unique_ptr<Process> behavior);

  /// Installs a timing-fault rule: messages src -> dst (kNoNode = wildcard)
  /// sent while the rule is active are delivered `min_delay..max_delay`
  /// rounds later than normal, the exact lag drawn per message from a
  /// deterministic hash seeded by `salt`. Lag 0 means normal next-round
  /// delivery. Delayed messages are never lost in transit — they arrive
  /// whole at their due round, or count as `lost_dead` if the receiver has
  /// crashed or halted by then. Unbudgeted (network fault). Returns a rule
  /// id for `remove_delay_rule`; earlier-installed rules match first.
  std::size_t add_delay_rule(NodeId src, NodeId dst, Round min_delay, Round max_delay,
                             std::uint64_t salt);
  /// Retires a delay rule; messages already in transit keep their due round.
  void remove_delay_rule(std::size_t id);

  /// Arms the GST partial-synchrony knob: a message sent at round r gets a
  /// hash-drawn lag of up to `stabilization - r - 1 + delta` rounds while
  /// r < stabilization (so everything sent before GST is readable by round
  /// stabilization + delta), and up to `delta - 1` rounds after (readable
  /// within Δ = delta rounds of the send). delta must be >= 1; delta == 1
  /// is fully synchronous delivery. Explicit delay rules take precedence on
  /// the links they match. Unbudgeted.
  void set_gst(Round stabilization, Round delta, std::uint64_t salt);

 private:
  friend class Engine;
  explicit FaultController(Engine& engine) : engine_(&engine) {}
  Engine* engine_;
};

/// An ordered collection of injectors driven by the engine each round. Order
/// is deterministic: injectors fire in insertion order within each phase.
class FaultPlane {
 public:
  /// Appends an injector (fires after previously added ones in each phase).
  FaultPlane& add(std::unique_ptr<FaultInjector> injector);
  /// True iff no injector is installed (the engine skips both phases).
  [[nodiscard]] bool empty() const noexcept { return injectors_.empty(); }
  /// Number of installed injectors.
  [[nodiscard]] std::size_t size() const noexcept { return injectors_.size(); }

  /// Drives every injector's pre-round hook, in insertion order.
  void pre_round(const EngineView& view, FaultController& control);
  /// Drives every injector's post-step hook, in insertion order.
  void on_round(const EngineView& view, FaultController& control);

 private:
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
};

// ---- declarative fault plans ----------------------------------------------

/// One planned crash: node `node` crashes at round `round`; each of its
/// pending sends that round survives with probability keep_fraction
/// (0 = clean crash, 1 = all of that round's sends still delivered).
struct CrashEvent {
  Round round = 0;
  NodeId node = kNoNode;
  double keep_fraction = 0.0;
};

/// Omission window: node `node` is send- and/or receive-omission faulty
/// during rounds [from, until).
struct OmissionEvent {
  NodeId node = kNoNode;
  Round from = 0;
  Round until = kRoundForever;
  bool send = true;
  bool recv = false;
};

/// Link-cut window: messages a -> b (and b -> a when symmetric) are dropped
/// during rounds [from, until).
struct LinkEvent {
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  Round from = 0;
  Round until = kRoundForever;
  bool symmetric = true;
};

/// Partition window: `group_of` (size n) holds each node's group during
/// rounds [from, until); messages crossing groups are dropped. At `until`
/// the partition heals (groups re-merge).
struct PartitionSpec {
  Round from = 0;
  Round until = kRoundForever;
  std::vector<std::uint32_t> group_of;
};

/// Byzantine takeover: at round `round`, node `node`'s Process is replaced
/// by the behavior the plan's BehaviorFactory builds for `kind`.
struct ByzantineEvent {
  Round round = 0;
  NodeId node = kNoNode;
  std::string kind;
};

/// Timing-fault window: messages src -> dst (kNoNode = every sender /
/// receiver) sent during rounds [from, until) are delivered
/// `min_delay..max_delay` rounds late, the exact lag drawn per message from
/// a deterministic hash of the plan seed and the event's own content — so
/// dropping sibling events (ddmin) never reshuffles this event's coins.
struct DelayEvent {
  Round from = 0;
  Round until = kRoundForever;
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  Round min_delay = 1;
  Round max_delay = 1;
};

/// GST switch, armed from round 0: adversarial (hash-drawn, bounded only by
/// GST + delta) lags before round `stabilization`, lags < `delta` after.
struct GstEvent {
  Round stabilization = 0;
  Round delta = 1;
};

/// Builds the Process installed by a planned Byzantine takeover.
using BehaviorFactory =
    std::function<std::unique_ptr<Process>(NodeId node, const std::string& kind)>;

/// t distinct victims crash at uniform random rounds within
/// [first_round, last_round], each with the given partial-send fraction.
[[nodiscard]] std::vector<CrashEvent> random_crash_schedule(NodeId n, std::int64_t t,
                                                            Round first_round,
                                                            Round last_round,
                                                            double keep_fraction,
                                                            std::uint64_t seed);

/// All t victims crash at round `round` (an early burst is the classic
/// worst case for flooding protocols).
[[nodiscard]] std::vector<CrashEvent> burst_crash_schedule(NodeId n, std::int64_t t,
                                                           Round round, std::uint64_t seed);

/// One victim crashes every `period` rounds starting at `first_round`
/// (exercises the paper's "one crash delays termination by O(1) rounds").
[[nodiscard]] std::vector<CrashEvent> staggered_crash_schedule(NodeId n, std::int64_t t,
                                                               Round first_round, Round period,
                                                               std::uint64_t seed);

/// A declarative, data-only fault schedule. Compose with the fluent
/// builders, then turn into an injector with `make_plan_injector`; scenarios
/// store plans, not adversary objects, so fault programs stay inspectable
/// and composable.
struct FaultPlan {
  std::uint64_t seed = 0;  // drives partial-send coins for planned crashes
  std::vector<CrashEvent> crashes;
  std::vector<OmissionEvent> omissions;
  std::vector<LinkEvent> links;
  std::vector<PartitionSpec> partitions;
  std::vector<ByzantineEvent> takeovers;
  std::vector<DelayEvent> delays;  // appended after takeovers: the shrinker's
  std::vector<GstEvent> gsts;      // flat event order depends on member order

  FaultPlan& with_seed(std::uint64_t s);
  /// Appends pre-built crash events (e.g. isolation_crash_schedule).
  FaultPlan& crash(std::vector<CrashEvent> events);
  FaultPlan& crash_at(NodeId node, Round round, double keep_fraction = 0.0);
  FaultPlan& random_crashes(NodeId n, std::int64_t t, Round first_round, Round last_round,
                            double keep_fraction, std::uint64_t schedule_seed);
  FaultPlan& burst_crashes(NodeId n, std::int64_t t, Round round, std::uint64_t schedule_seed);
  FaultPlan& staggered_crashes(NodeId n, std::int64_t t, Round first_round, Round period,
                               std::uint64_t schedule_seed);
  FaultPlan& omission(NodeId node, Round from, Round until, bool send, bool recv);
  /// `count` distinct omission-faulty nodes, windowed [from, until).
  FaultPlan& random_omissions(NodeId n, std::int64_t count, Round from, Round until, bool send,
                              bool recv, std::uint64_t schedule_seed);
  FaultPlan& cut_link(NodeId a, NodeId b, Round from, Round until, bool symmetric = true);
  /// Two-way split: nodes [0, boundary) vs [boundary, n) during [from, until).
  FaultPlan& split_at(NodeId boundary, NodeId n, Round from, Round until);
  FaultPlan& split(std::vector<std::uint32_t> group_of, Round from, Round until);
  FaultPlan& takeover(NodeId node, Round round, std::string kind);
  /// Delays messages src -> dst (kNoNode wildcards) sent during [from,
  /// until) by a hash-drawn lag in [min_delay, max_delay].
  FaultPlan& delay(NodeId src, NodeId dst, Round from, Round until, Round min_delay,
                   Round max_delay);
  /// Delays every message sent during [from, until).
  FaultPlan& delay_all(Round from, Round until, Round min_delay, Round max_delay);
  /// Arms the DLS partial-synchrony regime: adversarial lags before round
  /// `stabilization` (everything sent pre-GST readable by stabilization +
  /// delta), lags < delta after. delta >= 1; delta == 1 is synchronous.
  FaultPlan& gst(Round stabilization, Round delta);

  /// Distinct faulty *nodes* the plan names (crash + omission + Byzantine
  /// victims; link/partition faults are network faults). Budget-sizing aid.
  [[nodiscard]] std::int64_t faulty_nodes() const;
};

/// Deterministic injector executing `plan`: crashes fire in the post-step
/// phase (the classical adaptive position, same partial-send coins as
/// ScheduledAdversary); omission/link/partition windows and takeovers fire
/// in the pre-round phase at their scheduled rounds. `byz` is required iff
/// the plan contains takeovers.
[[nodiscard]] std::unique_ptr<FaultInjector> make_plan_injector(FaultPlan plan,
                                                                BehaviorFactory byz = nullptr);

/// Executes a fixed schedule of crash events (the original crash-only
/// strategy, now a FaultInjector).
class ScheduledAdversary final : public FaultInjector {
 public:
  ScheduledAdversary(std::vector<CrashEvent> events, std::uint64_t seed);
  void on_round(const EngineView& view, FaultController& control) override;

 private:
  std::vector<CrashEvent> events_;  // sorted by round
  std::size_t next_ = 0;
  Rng rng_;
};

/// Convenience: wraps a crash schedule in an injector.
[[nodiscard]] std::unique_ptr<FaultInjector> make_scheduled(std::vector<CrashEvent> events,
                                                            std::uint64_t seed = 0);

}  // namespace lft::sim
