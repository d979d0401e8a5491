// Synchronous multi-port message-passing engine (the paper's base model,
// Section 2): n nodes, lock-step rounds, any-to-any messaging, reliable
// same-round delivery, faults controlled by an adaptive adversary through
// the unified fault plane (sim/faults.hpp): crashes with budget t, plus
// send/receive omission, link cuts, partitions, and Byzantine takeover.
// Delivery normal form: sends produced in on_round(r) appear in
// the recipients' inboxes at on_round(r+1); round counts match the paper's.
//
// The engine is batched and event-driven with a zero-copy message plane:
// sim::Message is a trivially-copyable POD whose body is a view into a
// round-scoped, double-buffered PayloadArena, so each round's sends append
// PODs to a contiguous arena (reused across rounds — the steady state
// performs no per-message allocation), delivery is a two-pass counting/radix
// sweep that groups the batch by (receiver, tag) in O(m + min(n, d log d))
// for d distinct receivers, and each receiver gets a zero-copy Inbox view
// into its slice. Only nodes that are alive and not halted are stepped (the
// active set shrinks as the execution winds down), so per-round cost is
// O(active + messages), not O(n).
//
// Opt-in deterministic parallel stepping (EngineConfig::threads > 1): the
// active set is sharded across a small persistent worker pool; each worker
// appends sends to its own outbox arena, and the shards are concatenated in
// ascending sender order after the barrier, so the delivered batch — and
// with it every Report field — is bit-identical to the serial engine.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/flat_set64.hpp"
#include "common/types.hpp"
#include "sim/faults.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/payload.hpp"
#include "sim/trace.hpp"

namespace lft::obs {
class Registry;
}  // namespace lft::obs

namespace lft::sim {

class Engine;

/// Per-shard send collector (engine internal): a message vector plus the
/// double-buffered payload arenas its bodies point into. The serial engine
/// uses sink 0; the parallel stepper gives each worker its own, then
/// concatenates in shard (= ascending sender) order.
struct StepSink {
  std::vector<Message> msgs;
  /// Delivery sort keys built on the send path, 1:1 with msgs: the fused
  /// counting-sort key (to << tag_bits) | tag under the tag width latched
  /// when the step began. Shipping the key next to the record saves the
  /// delivery sweep a full gather pass over the batch (clean rounds consume
  /// these directly); rounds that compact the batch or outgrow the latched
  /// tag width rebuild from the records instead.
  std::vector<std::uint32_t> keys;
  std::uint32_t max_tag = 0;
  PayloadArena arena[2];  // indexed by round parity
  std::int64_t fallback_pulls = 0;
  /// Trace-hook accumulators for the current round (both stay 0 when
  /// tracing is off): XOR of store-time body digests, and the sum of
  /// send-time header digests. Both ride the send path while the message
  /// fields are still in registers — re-streaming the multi-hundred-MiB
  /// batch at delivery time just for a digest would cost a full DRAM pass —
  /// and both are worker-local and commutative, so the folded round digest
  /// is identical across serial and parallel stepping.
  std::uint64_t body_hash = 0;
  std::uint64_t header_sum = 0;
  /// Per-round communication accounting, accumulated on the send path and
  /// consumed by the clean-round delivery fast path (which then never has to
  /// re-stream the batch): total accounted bits, and the honest (non-
  /// Byzantine sender) message/bit counts. Rounds that take the compaction
  /// path ignore these — dropped messages make per-message accounting
  /// authoritative there.
  std::int64_t bits_sum = 0;
  std::int64_t honest_msgs = 0;
  std::int64_t honest_bits = 0;
  /// Worker-local per-round flags folded by the coordinator after the step
  /// barrier (workers may not touch shared engine counters): nodes that
  /// halted this round, and whether any node parked itself past the next
  /// round. Both feed the clean-round delivery fast path.
  std::int64_t halts = 0;
  bool slept = false;
};

/// Zero-copy view of one node's delivered batch for the current round.
/// Messages are grouped by tag (ascending) and sorted by sender id within
/// each tag group; per-sender send order is preserved.
class Inbox {
 public:
  Inbox() = default;
  /// Wraps a span that is already grouped by tag / sorted by sender (the
  /// engine's delivery normal form). Public so tests and adapters can build
  /// inboxes without an engine.
  explicit Inbox(std::span<const Message> sorted) : messages_(sorted) {}

  /// The whole delivered batch for this node, in normal-form order.
  [[nodiscard]] std::span<const Message> all() const noexcept { return messages_; }
  /// The contiguous run of messages carrying `tag` (binary search).
  [[nodiscard]] std::span<const Message> with_tag(std::uint32_t tag) const noexcept;

  /// Number of messages delivered this round.
  [[nodiscard]] std::size_t size() const noexcept { return messages_.size(); }
  /// True iff nothing was delivered this round.
  [[nodiscard]] bool empty() const noexcept { return messages_.empty(); }
  /// Range-for support over the delivered batch.
  [[nodiscard]] const Message* begin() const noexcept { return messages_.data(); }
  [[nodiscard]] const Message* end() const noexcept {
    return messages_.data() + messages_.size();
  }

 private:
  std::span<const Message> messages_;
};

/// Per-node handle the engine passes to Process::on_round.
class Context {
 public:
  /// This node's id.
  [[nodiscard]] NodeId self() const noexcept { return self_; }
  /// System size n. Inline below the Engine class: protocols read these
  /// inside their per-message send loops.
  [[nodiscard]] NodeId num_nodes() const noexcept;
  /// The current round (0-based).
  [[nodiscard]] Round round() const noexcept;

  /// Queues a message for delivery at the start of the next round. The
  /// payload bytes are copied into the engine's round arena immediately, so
  /// `body` may reference any storage that outlives the call. Defined inline
  /// below the Engine class: the bodyless case is the engine's single
  /// hottest operation and compiles down to accounting plus one 40-byte
  /// append when inlined into the caller's round loop.
  void send(NodeId to, std::uint32_t tag, std::uint64_t value, std::uint64_t bits = 1,
            PayloadView body = {});

  /// Irrevocably decides on a value; deciding twice on different values is a
  /// protocol bug and aborts.
  void decide(std::uint64_t value);
  /// True once this node decided (in this or an earlier round).
  [[nodiscard]] bool has_decided() const noexcept;
  /// The decided value; meaningful only when has_decided().
  [[nodiscard]] std::uint64_t decision() const noexcept;

  /// Voluntarily stops participating from the next round on.
  void halt();

  /// Event-driven activation: requests that this node not be stepped again
  /// before round `wake_round`, unless a message addressed to it is
  /// delivered first (delivery always wakes the recipient for the round the
  /// message is readable). A protocol may only sleep through rounds in which
  /// it would provably take no spontaneous action; the engine still ticks
  /// every round, so adversary schedules are unaffected.
  void sleep_until(Round wake_round);

  /// Records one activation of the certified-pull epilogue (DESIGN.md
  /// substitution 4); tests assert this stays zero.
  void count_fallback();

 private:
  friend class Engine;
  Context(Engine& engine, NodeId self, StepSink& sink, bool honest, unsigned tag_bits,
          bool traced)
      : engine_(&engine), self_(self), sink_(&sink), honest_(honest), tag_bits_(tag_bits),
        traced_(traced) {}
  Engine* engine_;
  NodeId self_;
  StepSink* sink_;
  bool honest_;        // !byzantine, latched at step time for the send fast path
  unsigned tag_bits_;  // engine sort-key tag width, latched at step time
  bool traced_;        // a TraceSink is installed: send accumulates digests
};

/// Protocol logic for one node. Implementations are installed per node and
/// driven once per round while the node is alive and not halted. With
/// parallel stepping enabled, on_round may run on a worker thread; a process
/// must only touch its own state and shared *read-only* configuration
/// (which every shipped protocol already satisfies).
class Process {
 public:
  virtual ~Process() = default;
  /// `inbox` views the messages delivered this round (see Inbox for order).
  virtual void on_round(Context& ctx, const Inbox& inbox) = 0;
};

/// Read-only view of the execution the adversary may inspect (a strong,
/// adaptive adversary: it sees this round's pending sends and node states).
class EngineView {
 public:
  explicit EngineView(const Engine& engine) : engine_(&engine) {}
  /// System size n.
  [[nodiscard]] NodeId num_nodes() const noexcept;
  /// The current round (0-based).
  [[nodiscard]] Round round() const noexcept;
  /// True iff v has not crashed.
  [[nodiscard]] bool alive(NodeId v) const noexcept;
  /// True iff v voluntarily halted.
  [[nodiscard]] bool halted(NodeId v) const noexcept;
  /// True iff v has decided.
  [[nodiscard]] bool decided(NodeId v) const noexcept;
  /// True iff v is marked Byzantine (setup or takeover).
  [[nodiscard]] bool byzantine(NodeId v) const noexcept;
  /// True iff v currently has a send-omission fault.
  [[nodiscard]] bool send_omission(NodeId v) const noexcept;
  /// True iff v currently has a receive-omission fault.
  [[nodiscard]] bool recv_omission(NodeId v) const noexcept;
  /// Crashes charged so far / the crash budget t.
  [[nodiscard]] std::int64_t crashes_used() const noexcept;
  [[nodiscard]] std::int64_t crash_budget() const noexcept;
  /// Distinct omission-faulty nodes charged so far / the omission budget.
  [[nodiscard]] std::int64_t omissions_used() const noexcept;
  [[nodiscard]] std::int64_t omission_budget() const noexcept;
  /// Byzantine takeovers charged so far / the Byzantine budget.
  [[nodiscard]] std::int64_t takeovers_used() const noexcept;
  [[nodiscard]] std::int64_t byzantine_budget() const noexcept;
  /// All messages produced this round, before crash filtering (arena order:
  /// ascending sender id, per-sender send order preserved). Empty in the
  /// pre-round phase.
  [[nodiscard]] std::span<const Message> pending_sends() const noexcept;
  /// The protocol object of node v (adversaries may downcast for
  /// protocol-aware attacks).
  [[nodiscard]] const Process* process(NodeId v) const noexcept;

 private:
  const Engine* engine_;
};

/// Per-node terminal state recorded in the Report.
struct NodeStatus {
  bool crashed = false;         ///< the fault plane crashed this node
  Round crash_round = -1;       ///< round of the crash (-1 if never)
  bool halted = false;          ///< voluntarily stopped participating
  bool decided = false;         ///< irrevocably decided a value
  std::uint64_t decision = 0;   ///< the decided value (when decided)
  bool byzantine = false;       ///< marked Byzantine (setup or takeover)
  bool omission = false;        ///< ever given a send/receive-omission fault
  std::int64_t sends = 0;       ///< messages this node sent (accounted)
};

/// Result of an execution.
struct Report {
  Round rounds = 0;        ///< rounds executed until every non-faulty node halted
  bool completed = false;  ///< false iff the max_rounds safety cap was hit
  Metrics metrics;                 ///< communication accounting
  std::vector<NodeStatus> nodes;   ///< per-node terminal states (size n)

  [[nodiscard]] std::int64_t decided_count() const noexcept;
  [[nodiscard]] std::int64_t crashed_count() const noexcept;
  /// The common decision of non-faulty decided nodes, or nullopt if none
  /// decided or two of them disagree. Crashed, Byzantine, and
  /// omission-faulty nodes are exempt.
  [[nodiscard]] std::optional<std::uint64_t> agreed_value() const noexcept;
  /// True iff every non-faulty (non-crashed, non-Byzantine, non-omission)
  /// node decided.
  [[nodiscard]] bool all_nonfaulty_decided() const noexcept;
};

/// Recyclable engine buffers for back-to-back executions (fleet mode): the
/// message outbox/inbox vectors and the serial send sink with its two
/// payload arenas — the storage whose capacity dominates an execution's
/// allocation profile. An Engine constructed with EngineConfig::scratch
/// adopts these buffers (contents cleared, capacity and arena chunks
/// retained) and releases them back on destruction, so the k-th execution in
/// a fleet slot reaches steady state without re-growing them. Purely a
/// capacity cache: adopting scratch never changes any Report bit.
struct EngineScratch {
  StepSink sink;               ///< serial sink 0: message vector + arenas
  std::vector<Message> outbox; ///< round send arena
  std::vector<Message> inbox;  ///< delivered-batch arena
  /// Observability counters (surfaced as FleetRunner stats): engines that
  /// adopted this scratch, and adoptions that found warm buffers left by a
  /// previous execution in the slot. Maintained by the engine at adoption
  /// time; purely diagnostic — they never change any Report bit.
  std::int64_t adoptions = 0;
  std::int64_t recycles = 0;
};

/// Construction-time engine configuration.
struct EngineConfig {
  /// Safety cap on executed rounds; Report::completed is false when hit.
  Round max_rounds = Round{1} << 22;
  std::int64_t crash_budget = 0;  ///< the paper's t (for the crash model)
  /// Nodes the fault plane may give send/receive-omission faults (charged
  /// once per node, on the first flag it receives).
  std::int64_t omission_budget = 0;
  /// Nodes the fault plane may take over as Byzantine mid-run. Pre-run
  /// mark_byzantine is setup, not an adversary move, and is not charged.
  std::int64_t byzantine_budget = 0;
  /// Worker threads for the deterministic parallel stepper; 1 = serial.
  /// Results are bit-identical for every value (see the file comment).
  int threads = 1;
  /// Optional recycled buffers (see EngineScratch). Non-owning: the scratch
  /// must outlive the engine, and one scratch may back at most one live
  /// engine at a time. nullptr = allocate fresh.
  EngineScratch* scratch = nullptr;
  /// Optional execution-trace hook (see sim/trace.hpp): when set, the engine
  /// emits one RoundDigest per executed round. Non-owning; nullptr (the
  /// default) records nothing and keeps the delivery hot path untouched.
  TraceSink* trace = nullptr;
  /// Optional telemetry registry (obs/obs.hpp): when set, the engine records
  /// per-round delivered/delayed/lost message counts, active-set size, step
  /// wall time, and arena bytes as `lft_engine_*` metrics. Strictly
  /// out-of-band — telemetry reads engine state and the clock but never
  /// feeds anything back, so Reports and RoundDigests are bit-identical
  /// with telemetry on or off (asserted in the determinism suites).
  /// Non-owning; single-writer (the thread calling run()).
  obs::Registry* telemetry = nullptr;
};

/// One execution: n nodes driven in lock-step rounds under the fault plane.
/// Construct, install a Process per node (plus injectors), then run() once.
class Engine {
 public:
  /// Builds an engine for n nodes; `config` is fixed for the execution.
  Engine(NodeId n, EngineConfig config);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Installs node v's protocol logic; every node needs one before run().
  void set_process(NodeId v, std::unique_ptr<Process> process);
  /// Appends an injector to the fault plane (injectors fire in insertion
  /// order within each phase).
  void add_fault_injector(std::unique_ptr<FaultInjector> injector);
  /// The engine's fault plane (for introspection; prefer add_fault_injector
  /// for installing strategies).
  [[nodiscard]] FaultPlane& faults() noexcept { return fault_plane_; }
  /// Marks v Byzantine for accounting (its sends are excluded from the
  /// honest counters). The Byzantine behavior itself is the installed
  /// Process.
  void mark_byzantine(NodeId v);

  /// Runs to completion (all non-faulty nodes halted) or the round cap.
  Report run();

  /// Post-run (or mid-run, from adversaries) introspection.
  [[nodiscard]] Process& process(NodeId v);
  [[nodiscard]] const Process& process(NodeId v) const;

 private:
  friend class Context;
  friend class EngineView;
  friend class FaultController;

  // Omission flag bits in omit_state_.
  static constexpr std::uint8_t kOmitSend = 1;
  static constexpr std::uint8_t kOmitRecv = 2;

  void do_send(StepSink& sink, NodeId from, NodeId to, std::uint32_t tag,
               std::uint64_t value, std::uint64_t bits, PayloadView body);
  void do_decide(NodeId v, std::uint64_t value);
  void do_sleep(NodeId v, Round wake_round);
  /// Ensures a sleeping node is stepped at `round` (message wake).
  void wake_by(NodeId v, Round round);
  void do_crash(NodeId v, std::function<bool(const Message&)> keep);
  void do_set_omission(NodeId v, std::uint8_t flag, bool enabled);
  void do_set_link(NodeId a, NodeId b, bool cut);
  void do_set_partition(std::span<const std::uint32_t> group_of);
  void do_clear_partition();
  void do_takeover(NodeId v, std::unique_ptr<Process> behavior);
  std::size_t do_add_delay_rule(NodeId src, NodeId dst, Round min_delay, Round max_delay,
                                std::uint64_t salt);
  void do_remove_delay_rule(std::size_t id);
  void do_set_gst(Round stabilization, Round delta, std::uint64_t salt);
  /// Recomputes delays_armed_ after a timing-fault state change.
  void rearm_delays() noexcept;
  /// Extra in-transit rounds for message m sent this round: the first
  /// matching delay rule's hash-drawn lag, else the GST regime's, else 0.
  [[nodiscard]] Round delay_for(const Message& m) const noexcept;
  /// Moves m into the bucket injected at `due` (body bytes copied — the
  /// send-time round arenas recycle too soon) and counts it as in transit.
  void park_delayed(const Message& m, Round due);
  /// Recomputes fault_filters_armed_ after a fault-state change.
  void rearm_fault_filters() noexcept;
  /// True iff the armed fault filters (omission / partition / link cuts)
  /// lose message m in transit.
  [[nodiscard]] bool fault_dropped(const Message& m) const noexcept;
  /// Runs one fault-plane phase (pre-round or post-step).
  void run_fault_phase(bool pre_round);
  /// Steps active_[k-th shard] (bounds in shard_begin_) into sinks_[k].
  void step_shard(std::size_t k);
  /// Steps every active node (serial or sharded) and fills outbox_.
  void step_active();
  /// Filters crashed senders / dead receivers out of the arena, accounts
  /// metrics, and sorts the survivors into delivery normal form.
  void deliver_batch();
  /// Two-pass counting/radix sort of outbox_ by (receiver, tag): stable by
  /// construction, O(m + tag_domain + min(n, d log d)) with inbox_ as the
  /// intermediate buffer. Falls back to a comparison sort for degenerate
  /// (huge) tag values.
  void sort_batch_normal_form();

  NodeId n_;
  EngineConfig config_;
  Round round_ = 0;
  std::vector<std::unique_ptr<Process>> processes_;
  FaultPlane fault_plane_;

  std::vector<NodeStatus> status_;
  std::int64_t crashes_used_ = 0;

  // Fault-plane state beyond crashes. All containers are empty (and the
  // armed flag false) until an injector uses the corresponding action, so
  // fault-free runs pay one predictable branch per delivered message.
  std::vector<std::uint8_t> omit_state_;  // lazily sized n; kOmitSend|kOmitRecv
  std::int64_t omissions_used_ = 0;       // distinct nodes ever given a flag
  std::vector<std::uint32_t> partition_group_;  // lazily sized n
  bool partition_active_ = false;
  FlatSet64 link_cuts_;                 // keys pack (from, to)
  bool fault_filters_armed_ = false;    // any of the three filters active
  std::int64_t omit_active_count_ = 0;  // nodes with a nonzero omit flag
  std::int64_t takeovers_used_ = 0;
  bool in_pre_round_ = false;           // gates takeover to the pre phase
  std::vector<NodeId> reactivated_;     // takeover scratch (halted/sleeping victims)

  // Timing-fault state: delay rules, the GST knob, and the due-round queue
  // of in-flight delayed messages. Everything here stays empty/false until a
  // timing fault is armed, and the delivery sweep consults only
  // delays_armed_ — zero-delay executions take the exact pre-existing code
  // path, bit for bit. Delayed messages are *moved*, never dropped: the
  // bucket keyed by round D is injected into round D's delivery sweep (so
  // its messages become readable at D + 1), each message's body copied into
  // the bucket's own arena because the send-round arenas recycle too soon.
  struct DelayRule {
    NodeId src;        // kNoNode = every sender
    NodeId dst;        // kNoNode = every receiver
    Round min_delay;
    Round max_delay;
    std::uint64_t salt;  // seeds the per-message lag coins
    bool active;
  };
  struct DelayedBatch {
    std::vector<Message> msgs;
    PayloadArena arena;
  };
  std::vector<DelayRule> delay_rules_;      // slot index = rule id
  std::int64_t delay_rules_active_ = 0;
  bool gst_armed_ = false;
  Round gst_round_ = 0;                     // global stabilization time
  Round gst_delta_ = 1;                     // post-GST delivery bound Δ
  std::uint64_t gst_salt_ = 0;
  bool delays_armed_ = false;               // rules/GST armed or queue nonempty
  std::map<Round, DelayedBatch> pending_delayed_;  // due round -> bucket
  std::int64_t pending_delayed_count_ = 0;  // messages across all buckets
  std::uint64_t total_delayed_ = 0;  // lifetime park_delayed count (telemetry)
  // Bucket injected last round: its arena backs inbox views until the step
  // that consumes them finishes, then the storage is recycled via the pool.
  DelayedBatch draining_delayed_;
  std::vector<DelayedBatch> delayed_pool_;

  // Nodes stepped each round (alive, not halted, not sleeping), ascending
  // id; compacted in place after each round.
  std::vector<NodeId> active_;

  // Sleeping nodes, woken by timer (min-heap, lazily invalidated) or by
  // message delivery. sleeping_[v] is authoritative; heap entries whose node
  // is no longer sleeping or whose round is stale are skipped on pop.
  std::vector<Round> wake_at_;
  std::vector<char> sleeping_;
  std::int64_t sleeping_count_ = 0;
  std::priority_queue<std::pair<Round, NodeId>, std::vector<std::pair<Round, NodeId>>,
                      std::greater<>>
      sleep_heap_;
  std::vector<NodeId> woken_;  // per-round scratch

  // Double-buffered contiguous message arenas, reused across rounds.
  std::vector<Message> outbox_;  // current round's sends, arena order
  std::vector<Message> inbox_;   // delivered batch, sorted by (receiver, tag)

  // Send collection: sinks_[0] serves the serial path; sinks_[1..] belong to
  // the worker pool. shard_begin_ holds the active_-index bounds of each
  // shard for the current round.
  std::vector<StepSink> sinks_;
  std::vector<std::size_t> shard_begin_;
  struct Pool;
  std::unique_ptr<Pool> pool_;

  // Radix-sweep scratch, sized once and cleared via touch lists so per-round
  // cost stays proportional to the batch.
  std::vector<std::uint32_t> tag_count_;
  std::vector<std::uint32_t> recv_count_;  // n entries, all zero between rounds
  std::vector<NodeId> touched_receivers_;

  // Fused single-pass sweep scratch (the fast path of
  // sort_batch_normal_form): per-message sort keys (to << tag_bits_) | tag,
  // the dense key histogram, and per-receiver inbox bounds derived from the
  // scattered histogram. recv_bounds_ is valid only for rounds the fused
  // sweep sorted (recv_bounds_valid_); step_shard then slices inboxes by
  // lookup instead of scanning inbox_ for receiver boundaries. tag_bits_ is
  // a high-water mark: it grows when a round's max tag outgrows it and the
  // keys are rebuilt (rare — tags are small protocol enumerators).
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> keys_hi_;  // two-level scatter: bucket ids, then per-bucket keys
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> recv_bounds_;  // n + 1 entries when valid
  bool recv_bounds_valid_ = false;
  unsigned tag_bits_ = 4;
  // Set by step_active when keys_ holds send-path-built keys aligned 1:1
  // with outbox_ (and sent_max_tag_ the batch's max tag); consumed — and
  // cleared — by the next sort_batch_normal_form. Compaction rounds clear it
  // before sorting: dropped records break the 1:1 alignment.
  bool sent_keys_valid_ = false;
  std::uint32_t sent_max_tag_ = 0;

  // Per-node send counts for the round being stepped, recorded as vector-
  // length deltas around each on_round call. The clean-round delivery fast
  // path charges NodeStatus::sends from these in O(active) instead of
  // re-streaming the batch; compaction rounds count per surviving message
  // and ignore them. Entries of nodes not stepped this round are stale by
  // design — consumers only read the stepped set.
  std::vector<std::uint32_t> round_sends_;

  // Nodes currently crashed or halted. When zero (and no crash / fault
  // filter / sleep activity this round), no delivered message can drop and
  // deliver_batch takes the clean-round fast path: run-length sender
  // accounting over the ascending-sender outbox instead of per-message
  // status checks and compaction. Maintained by the coordinator only
  // (worker halts are folded from StepSink::halts after the step barrier).
  std::int64_t dead_count_ = 0;

  // Per-round crash bookkeeping. `crash_filter_` maps a node crashed this
  // round to its keep-filter slot (or -1 for a clean crash); only the entries
  // named in `crashed_this_round_` are live, and only those are reset at the
  // end of the round, keeping per-round cost independent of n. Keep-filter
  // slots are reused across rounds (high-water storage + per-round counter)
  // instead of cleared, avoiding std::function churn on adversary-heavy
  // runs.
  std::vector<std::int32_t> crash_filter_;  // n-sized, -2 = not crashed this round
  std::vector<NodeId> crashed_this_round_;
  std::vector<std::function<bool(const Message&)>> keep_filters_;
  std::size_t keep_filters_used_ = 0;

  // Per-round digest scratch for the trace hook; only touched when
  // config_.trace is set (loss counters hide behind the existing drop
  // branches, and the per-round hashes are computed just before emission).
  RoundDigest digest_;

  Metrics metrics_;

  // Telemetry instrument handles (engine.cpp), resolved once from
  // config_.telemetry at construction; nullptr when telemetry is off. All
  // recording is out-of-band: it never changes a Report or digest bit.
  struct Telemetry;
  std::unique_ptr<Telemetry> tele_;
};

inline NodeId Context::num_nodes() const noexcept { return engine_->n_; }
inline Round Context::round() const noexcept { return engine_->round_; }

// ---- Inline send fast path -------------------------------------------------
// The bodyless send — the overwhelmingly common case across the shipped
// protocols and the engine's single hottest operation — inlines into the
// caller's round loop: two asserts, the per-sink accounting adds, and one
// 40-byte vector append. Traced runs add one header word to the sink's
// commutative sum while the fields are in registers, which is how the
// traced and untraced send paths stay within the recorder-overhead gate of
// each other. Sends with bodies take the out-of-line Engine::do_send (arena
// store + store-time body digest).
inline void Context::send(NodeId to, std::uint32_t tag, std::uint64_t value,
                          std::uint64_t bits, PayloadView body) {
  if (!body.empty()) [[unlikely]] {
    engine_->do_send(*sink_, self_, to, tag, value, bits, body);
    return;
  }
  LFT_ASSERT(to >= 0 && to < engine_->n_);
  LFT_ASSERT(bits >= 1);
  StepSink& sink = *sink_;
  sink.bits_sum += static_cast<std::int64_t>(bits);
  if (honest_) [[likely]] {
    ++sink.honest_msgs;
    sink.honest_bits += static_cast<std::int64_t>(bits);
  }
  sink.keys.push_back((static_cast<std::uint32_t>(to) << tag_bits_) | tag);
  if (tag > sink.max_tag) sink.max_tag = tag;
  Message m;
  m.from = self_;
  m.to = to;
  m.tag = tag;
  m.value = value;
  m.bits = bits;
  if (traced_) sink.header_sum += digest_header(m);
  sink.msgs.push_back(m);
}

}  // namespace lft::sim
