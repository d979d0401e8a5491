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
// performs no per-message allocation). Delivery is one compaction pass (drop,
// delay, account) followed by one stable sort by (receiver, tag). A large
// batch (the round's sends plus the delayed messages due now) is compacted
// and sorted on the stepper's shards, a smaller one by shard 0 inline, with
// the same two functions: each shard compacts whole sender runs of the
// outbox in place and histograms its survivors by receiver bucket; the sort
// scatters the survivors into receiver buckets, orders each bucket by a
// counting sort when it is dense or by a comparison sort when it is sparse
// or its tags are degenerate, and wakes each bucket's receivers. Each receiver gets a
// zero-copy Inbox view into its slice. Only nodes that are alive and not
// halted are stepped (the active set shrinks as the execution winds down),
// so per-round cost is O(active + messages), not O(n).
//
// Deterministic parallel stepping, sized by the machine (EngineConfig::
// threads): the active set is sharded across a small persistent worker
// pool; shard 0 appends to the outbox, every other shard to its own sink,
// appended in ascending sender order after the barrier, so the delivered
// batch — and every Report field — is bit-identical to the serial engine.
// The same pool runs the large batch's compaction and sort shards. A
// compaction shard owns whole senders, the coordinator folds the shards'
// sums and delayed messages in shard order, and a stable sort by
// (receiver, tag) has one possible output, so both are bit-identical too.
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
/// double-buffered payload arenas its bodies point into. Sink 0's vector is
/// the round's outbox; each further parallel worker fills its own sink,
/// appended to sink 0 in shard (= ascending sender) order.
struct StepSink {
  std::vector<Message> msgs;
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
  Context(Engine& engine, NodeId self, StepSink& sink, bool traced)
      : engine_(&engine), self_(self), sink_(&sink), traced_(traced) {}
  Engine* engine_;
  NodeId self_;
  StepSink* sink_;
  bool traced_;  // a TraceSink is installed: send accumulates digests
};

/// Protocol logic for one node. Implementations are installed per node and
/// driven once per round while the node is alive and not halted. The
/// parallel stepper may run on_round on a worker thread; a process
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
  /// Distinct omission-faulty nodes charged so far.
  [[nodiscard]] std::int64_t omissions_used() const noexcept;
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

/// One due round's delayed messages (engine internal): the parked records
/// and the arena holding copies of their bodies.
struct DelayedBatch {
  std::vector<Message> msgs;
  PayloadArena arena;
};

/// Recyclable engine buffers for back-to-back executions (fleet mode): sink
/// 0 (the outbox and its two payload arenas), the inbox vector and the
/// largest emptied delay buckets — the storage whose capacity dominates an
/// execution's allocation profile. An Engine constructed with
/// EngineConfig::scratch adopts these buffers (contents cleared, capacity
/// and arena chunks retained) and releases them back on destruction, so the
/// k-th execution in a fleet slot reaches steady state without re-growing
/// them. Purely a capacity cache: adopting scratch never changes any Report
/// bit.
struct EngineScratch {
  StepSink sink;               ///< sink 0: the outbox + arenas
  std::vector<Message> inbox;  ///< delivered-batch arena
  std::vector<DelayedBatch> delayed;  ///< spare delay-queue buckets
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
  /// Worker threads for the deterministic parallel stepper; 1 = serial, 0 =
  /// derived at construction: usable_cpus() (common/cpus.hpp) capped at 4,
  /// or 1 after step_serially_on_this_thread(). Fewer than 256 nodes always
  /// step serially. Results are bit-identical for every value.
  int threads = 0;
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

/// Resolves EngineConfig::threads == 0 to 1 for engines later built on the
/// calling thread: FleetRunner workers, each already running an execution.
void step_serially_on_this_thread() noexcept;

/// One execution: n nodes driven in lock-step rounds under the fault plane.
/// Construct, install a Process per node (plus injectors), then run() once
/// (or step() until it returns false, then finish()).
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

  /// Runs to completion (all non-faulty nodes halted) or the round cap:
  /// `while (step()) {}`, then finish().
  Report run();
  /// Executes one lock-step round. Returns false once the execution has
  /// finished (every non-faulty node halted, or the round cap hit); the
  /// finishing round still executes on the call that returns false, and
  /// later calls do nothing. Stepping and run() are bit-identical.
  [[nodiscard]] bool step();
  /// The execution's Report; call after step() returned false.
  [[nodiscard]] Report finish() const;

  /// Worker count the stepper resolved to (see EngineConfig::threads).
  [[nodiscard]] int threads() const noexcept { return static_cast<int>(sinks_.size()); }
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
  /// Wakes receiver v for next round, when its delivered inbox is readable;
  /// true iff v is parked and needs a sleep-heap entry for that round.
  [[nodiscard]] bool wake_receiver(std::size_t v) noexcept;
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
  /// Empties the bucket injected last round into the spares.
  void recycle_drained();
  /// Recomputes fault_filters_armed_ after a fault-state change.
  void rearm_fault_filters() noexcept;
  /// True iff the armed fault filters (omission / partition / link cuts)
  /// lose message m in transit.
  [[nodiscard]] bool fault_dropped(const Message& m) const noexcept;
  /// Runs one fault-plane phase (pre-round or post-step).
  void run_fault_phase(bool pre_round);
  /// One shard's share of a sharded job: shard 0 runs on the calling
  /// thread, shard k >= 1 on worker k - 1.
  using ShardJob = void (*)(Engine&, std::size_t shard);
  /// Runs `job` for the batch's shards 0..part_.shards-1 and returns once
  /// all finished: on the worker pool, or inline as the one shard of an
  /// unsharded batch.
  void run_shards(ShardJob job);
  /// Steps active_[k-th shard] (bounds in shard_begin_) into sinks_[k].
  void step_shard(std::size_t k);
  /// Steps every active node (serial or sharded) and fills the outbox.
  void step_active();
  /// Filters crashed senders / dead receivers out of the arena, accounts
  /// metrics, sorts the survivors into delivery normal form and wakes
  /// their receivers.
  void deliver_batch();
  /// Compaction of shard k's chunk of the outbox (see engine.cpp): drops,
  /// per-sender-run accounting, delayed messages (parked by shard 0, queued
  /// by a worker's shard), and the survivors' receiver-bucket histogram.
  void compact_shard(std::size_t k);
  /// Two-level stable sort of the shards' survivor ranges plus the injected
  /// chunk by (receiver, tag) into inbox_, waking the receivers.
  void sort_batch();
  /// The sort's two shard phases (see engine.cpp): the stable scatter of
  /// shard k's survivor range into receiver buckets, and the sort of shard
  /// k's buckets, each by a counting sort or a sort of its positions by
  /// (to, tag, position), waking their receivers.
  void partition_scatter(std::size_t k);
  void partition_sort_buckets(std::size_t k);

  NodeId n_;
  EngineConfig config_;
  Round round_ = 0;
  std::vector<std::unique_ptr<Process>> processes_;
  FaultPlane fault_plane_;

  std::vector<NodeStatus> status_;
  // Receiver liveness, one byte per node beside status_: 1 once the node
  // crashed or halted (cleared by a takeover). Delivery reads it per
  // message instead of two fields of a 40-byte NodeStatus.
  std::vector<std::uint8_t> dead_;
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
  // that consumes them finishes, then the storage is recycled via the spares.
  DelayedBatch draining_delayed_;
  std::vector<DelayedBatch> delayed_spares_;

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

  // The delivered batch, sorted by (receiver, tag); with the outbox
  // (sinks_[0].msgs) the engine's two message arenas, reused across rounds.
  std::vector<Message> inbox_;

  // Send collection: sinks_[0] is the outbox; sinks_[1..] belong to the
  // worker pool. shard_begin_ holds the active_-index bounds of each shard
  // for the current round.
  std::vector<StepSink> sinks_;
  std::vector<std::size_t> shard_begin_;
  struct Pool;
  std::unique_ptr<Pool> workers_;

  // Sort scratch: per-message bucket keys ((to - base) << tag_bits_) | tag,
  // base the bucket's first receiver, or a comparison-sorted bucket's
  // positions; and one dense key histogram per shard. tag_bits_ is a
  // high-water mark: it grows when a round's max tag outgrows it (rare —
  // tags are small protocol enumerators).
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> counts_;
  unsigned tag_bits_ = 4;

  // The sort's plan for the current batch, written by the coordinator
  // between its phases. The batch has `shards` compaction chunks (W on the
  // sharded route, else 1) plus the injected chunk; receiver buckets are
  // to >> shift (at most 256 of them), and shard k sorts buckets
  // [shard_buckets[k], shard_buckets[k + 1]) from inbox_ back into the
  // outbox. `counting` is true when counts_ holds `domain` (the widest
  // bucket's key domain) counts per shard, so a dense bucket may take the
  // counting sort.
  struct Partition {
    std::size_t shards = 1;
    unsigned shift = 0;
    std::size_t buckets = 0;
    bool counting = false;
    std::size_t domain = 0;
    // (shards + 1) x buckets: chunk histograms, then scatter cursors.
    std::vector<std::uint32_t> cursors;
    std::vector<std::uint32_t> bucket_begin;  // buckets + 1 offsets into the batch
    std::vector<std::size_t> shard_buckets;   // shards + 1
  };
  Partition part_;

  // One compaction chunk: its outbox input range, its survivors (compacted
  // in place to [begin, kept)) and the shard's accumulators, which the
  // coordinator folds in shard order. Entry part_.shards is the injected
  // chunk.
  // Every buffer here that a worker fills is reserved on the coordinator.
  struct CompactShard {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t kept = 0;
    std::uint32_t max_tag = 0;  // largest survivor tag
    std::int64_t messages = 0;
    std::int64_t bits = 0;
    std::int64_t honest_messages = 0;
    std::int64_t honest_bits = 0;
    // Trace accounting (stays 0 when untraced): header sum of the dropped
    // and delayed messages, and their counts.
    std::uint64_t dropped_sum = 0;
    std::uint64_t lost_crash = 0;
    std::uint64_t lost_fault = 0;
    std::uint64_t lost_dead = 0;
    std::uint64_t delayed = 0;
    std::vector<std::pair<Round, Message>> parked;  // a worker shard's (due round, message)
    std::vector<NodeId> sleepers;  // parked receivers this shard's buckets woke
  };
  std::vector<CompactShard> compact_;  // W + 1 entries

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

  bool finished_ = false;   // step() returned false
  bool completed_ = false;  // finished with every node halted (not the cap)
};

inline NodeId Context::num_nodes() const noexcept { return engine_->n_; }
inline Round Context::round() const noexcept { return engine_->round_; }

// ---- Inline send fast path -------------------------------------------------
// The bodyless send — the overwhelmingly common case across the shipped
// protocols and the engine's single hottest operation — inlines into the
// caller's round loop: two asserts and one 40-byte vector append. Traced
// runs add one header word to the sink's commutative sum while the fields
// are in registers, which is how the traced and untraced send paths stay
// within the recorder-overhead gate of each other. Sends with bodies take
// the out-of-line Engine::do_send (arena store + store-time body digest).
inline void Context::send(NodeId to, std::uint32_t tag, std::uint64_t value,
                          std::uint64_t bits, PayloadView body) {
  if (!body.empty()) [[unlikely]] {
    engine_->do_send(*sink_, self_, to, tag, value, bits, body);
    return;
  }
  LFT_ASSERT(to >= 0 && to < engine_->n_);
  LFT_ASSERT(bits >= 1);
  StepSink& sink = *sink_;
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
