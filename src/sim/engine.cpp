#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/assert.hpp"
#include "common/simd.hpp"
#include "obs/obs.hpp"

namespace lft::sim {

namespace {
constexpr std::int32_t kNotCrashedThisRound = -2;
constexpr std::int32_t kCleanCrash = -1;
// Tag values are small enumerators; anything past this is degenerate and
// falls back to a comparison sort (same normal form, so still deterministic).
constexpr std::uint32_t kMaxCountingTag = 1u << 16;
// Below this many active nodes a round is stepped serially even with a
// worker pool: the barrier handshake would dominate. Purely a latency knob —
// results are bit-identical either way.
constexpr std::size_t kParallelMinActive = 256;
// Cap on the fused delivery sweep's key domain (n << tag_bits): bounds the
// dense histogram at 16 MiB of u32 counts and keeps the key in 32 bits.
constexpr std::uint64_t kMaxFusedDomain = 1u << 22;

// Batch size past which the fused sweep's scatter goes two-level (cache-
// blocked): 40-byte records times this is ~10 MB, past any L2. Both
// strategies produce the identical stable permutation.
constexpr std::size_t kTwoLevelMinM = std::size_t{1} << 18;
}  // namespace

// ---- Telemetry -------------------------------------------------------------

/// The engine's metric catalogue (docs/observability.md), resolved once at
/// construction. Recording reads engine state and the clock; it never feeds
/// a value back into the execution.
struct Engine::Telemetry {
  explicit Telemetry(obs::Registry& registry)
      : rounds(registry.counter("lft_engine_rounds_total")),
        sent_total(registry.counter("lft_engine_sent_total")),
        delivered_total(registry.counter("lft_engine_delivered_total")),
        delayed_total(registry.counter("lft_engine_delayed_total")),
        lost_total(registry.counter("lft_engine_lost_total")),
        round_delivered(registry.histogram("lft_engine_round_delivered")),
        round_delayed(registry.histogram("lft_engine_round_delayed")),
        round_lost(registry.histogram("lft_engine_round_lost")),
        round_active(registry.histogram("lft_engine_round_active")),
        step_ns(registry.histogram("lft_engine_step_ns")),
        arena_bytes(registry.gauge("lft_engine_arena_bytes")) {}

  obs::Counter& rounds;
  obs::Counter& sent_total;
  obs::Counter& delivered_total;
  obs::Counter& delayed_total;
  obs::Counter& lost_total;
  obs::Histogram& round_delivered;
  obs::Histogram& round_delayed;
  obs::Histogram& round_lost;
  obs::Histogram& round_active;
  obs::Histogram& step_ns;
  obs::Gauge& arena_bytes;
};

// ---- Inbox -----------------------------------------------------------------

std::span<const Message> Inbox::with_tag(std::uint32_t tag) const noexcept {
  const auto lo = std::partition_point(
      messages_.begin(), messages_.end(), [tag](const Message& m) { return m.tag < tag; });
  const auto hi = std::partition_point(
      lo, messages_.end(), [tag](const Message& m) { return m.tag <= tag; });
  return messages_.subspan(static_cast<std::size_t>(lo - messages_.begin()),
                           static_cast<std::size_t>(hi - lo));
}

// ---- Context ---------------------------------------------------------------

void Context::decide(std::uint64_t value) { engine_->do_decide(self_, value); }

bool Context::has_decided() const noexcept {
  return engine_->status_[static_cast<std::size_t>(self_)].decided;
}

std::uint64_t Context::decision() const noexcept {
  return engine_->status_[static_cast<std::size_t>(self_)].decision;
}

void Context::halt() {
  auto& s = engine_->status_[static_cast<std::size_t>(self_)];
  if (!s.halted) {
    s.halted = true;
    ++sink_->halts;  // folded into Engine::dead_count_ after the step barrier
  }
}

void Context::sleep_until(Round wake_round) {
  // A node parking itself past the next round disables the clean-round
  // delivery fast path for this round (a message to it must wake it before
  // the end-of-round compaction parks it). Worker-local flag, folded later.
  if (wake_round > engine_->round_ + 1) sink_->slept = true;
  engine_->do_sleep(self_, wake_round);
}

void Context::count_fallback() { ++sink_->fallback_pulls; }

// ---- EngineView ------------------------------------------------------------

NodeId EngineView::num_nodes() const noexcept { return engine_->n_; }
Round EngineView::round() const noexcept { return engine_->round_; }

bool EngineView::alive(NodeId v) const noexcept {
  return !engine_->status_[static_cast<std::size_t>(v)].crashed;
}

bool EngineView::halted(NodeId v) const noexcept {
  return engine_->status_[static_cast<std::size_t>(v)].halted;
}

bool EngineView::decided(NodeId v) const noexcept {
  return engine_->status_[static_cast<std::size_t>(v)].decided;
}

bool EngineView::byzantine(NodeId v) const noexcept {
  return engine_->status_[static_cast<std::size_t>(v)].byzantine;
}

bool EngineView::send_omission(NodeId v) const noexcept {
  const auto& omit = engine_->omit_state_;
  return !omit.empty() && (omit[static_cast<std::size_t>(v)] & Engine::kOmitSend) != 0;
}

bool EngineView::recv_omission(NodeId v) const noexcept {
  const auto& omit = engine_->omit_state_;
  return !omit.empty() && (omit[static_cast<std::size_t>(v)] & Engine::kOmitRecv) != 0;
}

std::int64_t EngineView::crashes_used() const noexcept { return engine_->crashes_used_; }
std::int64_t EngineView::crash_budget() const noexcept { return engine_->config_.crash_budget; }
std::int64_t EngineView::omissions_used() const noexcept { return engine_->omissions_used_; }
std::int64_t EngineView::omission_budget() const noexcept {
  return engine_->config_.omission_budget;
}
std::int64_t EngineView::takeovers_used() const noexcept { return engine_->takeovers_used_; }
std::int64_t EngineView::byzantine_budget() const noexcept {
  return engine_->config_.byzantine_budget;
}

std::span<const Message> EngineView::pending_sends() const noexcept {
  return engine_->outbox_;
}

const Process* EngineView::process(NodeId v) const noexcept {
  return engine_->processes_[static_cast<std::size_t>(v)].get();
}

// ---- Report ----------------------------------------------------------------

std::int64_t Report::decided_count() const noexcept {
  std::int64_t c = 0;
  for (const auto& s : nodes) c += s.decided ? 1 : 0;
  return c;
}

std::int64_t Report::crashed_count() const noexcept {
  std::int64_t c = 0;
  for (const auto& s : nodes) c += s.crashed ? 1 : 0;
  return c;
}

std::optional<std::uint64_t> Report::agreed_value() const noexcept {
  std::optional<std::uint64_t> value;
  for (const auto& s : nodes) {
    if (s.crashed || s.byzantine || s.omission || !s.decided) continue;
    if (!value) {
      value = s.decision;
    } else if (*value != s.decision) {
      return std::nullopt;
    }
  }
  return value;
}

bool Report::all_nonfaulty_decided() const noexcept {
  return std::all_of(nodes.begin(), nodes.end(), [](const NodeStatus& s) {
    return s.crashed || s.byzantine || s.omission || s.decided;
  });
}

// ---- Engine::Pool ----------------------------------------------------------

/// Persistent worker pool for the deterministic parallel stepper. Workers
/// park on a condition variable between rounds; the coordinating thread runs
/// shard 0 itself, so a pool of W sinks spawns W-1 threads. The mutex
/// handshake orders every worker's writes before the coordinator resumes.
struct Engine::Pool {
  Pool(Engine& engine, int workers) : engine_(&engine) {
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int k = 0; k < workers; ++k) {
      threads_.emplace_back([this, k] { worker_loop(static_cast<std::size_t>(k) + 1); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_start_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Dispatches shards 1..W-1 to the pool, runs shard 0 inline, and returns
  /// once every shard finished.
  void step_round() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++generation_;
      pending_ = static_cast<int>(threads_.size());
    }
    cv_start_.notify_all();
    engine_->step_shard(0);
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void worker_loop(std::size_t shard) {
    std::uint64_t seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      engine_->step_shard(shard);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --pending_;
      }
      cv_done_.notify_one();
    }
  }

  Engine* engine_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

// ---- Engine ----------------------------------------------------------------

Engine::Engine(NodeId n, EngineConfig config)
    : n_(n),
      config_(config),
      processes_(static_cast<std::size_t>(n)),
      status_(static_cast<std::size_t>(n)),
      wake_at_(static_cast<std::size_t>(n), 0),
      sleeping_(static_cast<std::size_t>(n), 0),
      recv_count_(static_cast<std::size_t>(n), 0),
      round_sends_(static_cast<std::size_t>(n), 0),
      crash_filter_(static_cast<std::size_t>(n), kNotCrashedThisRound) {
  LFT_ASSERT(n > 0);
  if (config_.telemetry != nullptr) {
    tele_ = std::make_unique<Telemetry>(*config_.telemetry);
  }
  active_.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) active_.push_back(v);
  const int workers = std::clamp(config_.threads, 1, 64);
  config_.threads = workers;
  sinks_.resize(static_cast<std::size_t>(workers));
  shard_begin_.assign(static_cast<std::size_t>(workers) + 1, 0);
  if (config_.scratch != nullptr) {
    // Adopt the recycled buffers: contents are cleared, but vector capacity
    // and arena chunks carry over from the previous execution in this slot.
    EngineScratch& scratch = *config_.scratch;
    ++scratch.adoptions;
    if (scratch.outbox.capacity() != 0 || scratch.inbox.capacity() != 0 ||
        scratch.sink.msgs.capacity() != 0) {
      ++scratch.recycles;  // warm buffers left by a previous execution
    }
    sinks_[0] = std::move(scratch.sink);
    sinks_[0].msgs.clear();
    sinks_[0].arena[0].clear();
    sinks_[0].arena[1].clear();
    sinks_[0].fallback_pulls = 0;
    outbox_ = std::move(scratch.outbox);
    outbox_.clear();
    inbox_ = std::move(scratch.inbox);
    inbox_.clear();
  }
  // The active set never exceeds n, so a small engine can never engage the
  // pool — skip creating threads it would only park and join.
  if (workers > 1 && static_cast<std::size_t>(n_) >= kParallelMinActive) {
    pool_ = std::make_unique<Pool>(*this, workers - 1);
  }
}

Engine::~Engine() {
  if (config_.scratch != nullptr) {
    // Release the buffers (capacity and arena chunks intact) back to the
    // scratch so the next execution in this slot can adopt them.
    EngineScratch& scratch = *config_.scratch;
    scratch.sink = std::move(sinks_[0]);
    scratch.outbox = std::move(outbox_);
    scratch.inbox = std::move(inbox_);
  }
}

void Engine::set_process(NodeId v, std::unique_ptr<Process> process) {
  LFT_ASSERT(v >= 0 && v < n_);
  processes_[static_cast<std::size_t>(v)] = std::move(process);
}

void Engine::add_fault_injector(std::unique_ptr<FaultInjector> injector) {
  fault_plane_.add(std::move(injector));
}

void Engine::mark_byzantine(NodeId v) {
  LFT_ASSERT(v >= 0 && v < n_);
  status_[static_cast<std::size_t>(v)].byzantine = true;
}

Process& Engine::process(NodeId v) {
  LFT_ASSERT(v >= 0 && v < n_);
  LFT_ASSERT(processes_[static_cast<std::size_t>(v)] != nullptr);
  return *processes_[static_cast<std::size_t>(v)];
}

const Process& Engine::process(NodeId v) const {
  LFT_ASSERT(v >= 0 && v < n_);
  LFT_ASSERT(processes_[static_cast<std::size_t>(v)] != nullptr);
  return *processes_[static_cast<std::size_t>(v)];
}

void Engine::do_send(StepSink& sink, NodeId from, NodeId to, std::uint32_t tag,
                     std::uint64_t value, std::uint64_t bits, PayloadView body) {
  // The out-of-line half of Context::send: sends carrying a body (the
  // bodyless case inlines at the call site — see engine.hpp).
  LFT_ASSERT(to >= 0 && to < n_);
  LFT_ASSERT(bits >= 1);
  sink.bits_sum += static_cast<std::int64_t>(bits);
  if (!status_[static_cast<std::size_t>(from)].byzantine) {
    ++sink.honest_msgs;
    sink.honest_bits += static_cast<std::int64_t>(bits);
  }
  sink.keys.push_back((static_cast<std::uint32_t>(to) << tag_bits_) | tag);
  if (tag > sink.max_tag) sink.max_tag = tag;
  Message m;
  m.from = from;
  m.to = to;
  m.tag = tag;
  m.value = value;
  m.bits = bits;
  m.set_body(sink.arena[static_cast<std::size_t>(round_) & 1].store(body));
  // Trace digests happen at send time, while the message fields are in
  // registers and the body bytes are cache-hot; both accumulators are
  // worker-local and commutative, so the round digest is identical across
  // serial and parallel stepping.
  if (config_.trace != nullptr) {
    const std::uint64_t w = digest_header(m);
    sink.header_sum += w;
    sink.body_hash ^= digest_body(w, body);
  }
  sink.msgs.push_back(m);
}

void Engine::do_decide(NodeId v, std::uint64_t value) {
  auto& s = status_[static_cast<std::size_t>(v)];
  if (s.decided) {
    LFT_ASSERT_MSG(s.decision == value, "decision is irrevocable");
    return;
  }
  s.decided = true;
  s.decision = value;
}

void Engine::do_sleep(NodeId v, Round wake_round) {
  // Applied during the node's own on_round; the move out of the active set
  // happens in the end-of-round compaction.
  wake_at_[static_cast<std::size_t>(v)] = wake_round;
}

void Engine::wake_by(NodeId v, Round round) {
  auto& wake = wake_at_[static_cast<std::size_t>(v)];
  if (wake <= round) return;
  wake = round;
  if (sleeping_[static_cast<std::size_t>(v)] != 0) sleep_heap_.emplace(round, v);
}

void Engine::do_crash(NodeId v, std::function<bool(const Message&)> keep) {
  LFT_ASSERT(v >= 0 && v < n_);
  auto& s = status_[static_cast<std::size_t>(v)];
  LFT_ASSERT_MSG(!s.crashed, "node already crashed");
  // Crashing an already-halted node is a no-op for the execution; the paper
  // disregards such crashes, so we do not charge the budget for them.
  if (s.halted) return;
  if (sleeping_[static_cast<std::size_t>(v)] != 0) {
    sleeping_[static_cast<std::size_t>(v)] = 0;
    --sleeping_count_;
  }
  ++crashes_used_;
  LFT_ASSERT_MSG(crashes_used_ <= config_.crash_budget, "crash budget exceeded");
  s.crashed = true;
  ++dead_count_;  // halted nodes returned above are already counted
  s.crash_round = round_;
  crashed_this_round_.push_back(v);
  if (config_.trace != nullptr) ++digest_.crashes;
  if (keep) {
    // Reuse a high-water slot instead of growing/clearing the vector each
    // round: live slots are [0, keep_filters_used_).
    const auto slot = keep_filters_used_++;
    if (slot < keep_filters_.size()) {
      keep_filters_[slot] = std::move(keep);
    } else {
      keep_filters_.push_back(std::move(keep));
    }
    crash_filter_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(slot);
  } else {
    crash_filter_[static_cast<std::size_t>(v)] = kCleanCrash;
  }
}

void Engine::do_set_omission(NodeId v, std::uint8_t flag, bool enabled) {
  LFT_ASSERT(v >= 0 && v < n_);
  LFT_ASSERT_MSG(!status_[static_cast<std::size_t>(v)].crashed,
                 "omission faults target running nodes");
  // Giving a halted node an omission fault has no effect on the execution;
  // as with crashing a halted node, it is a free no-op (no budget charge, no
  // faulty mark — the node's decisions were made while it was non-faulty).
  // Disabling still proceeds so windowed plans keep their counters balanced.
  if (enabled && status_[static_cast<std::size_t>(v)].halted) return;
  if (config_.trace != nullptr) ++digest_.omissions;
  if (omit_state_.empty()) omit_state_.assign(static_cast<std::size_t>(n_), 0);
  auto& state = omit_state_[static_cast<std::size_t>(v)];
  const std::uint8_t before = state;
  if (enabled) {
    if (before == 0) {
      // First omission flag this node ever receives: it becomes a faulty
      // node and is charged against the omission budget.
      if (!status_[static_cast<std::size_t>(v)].omission) {
        status_[static_cast<std::size_t>(v)].omission = true;
        ++omissions_used_;
        LFT_ASSERT_MSG(omissions_used_ <= config_.omission_budget, "omission budget exceeded");
      }
    }
    state = static_cast<std::uint8_t>(before | flag);
  } else {
    state = static_cast<std::uint8_t>(before & ~flag);
  }
  if (before == 0 && state != 0) ++omit_active_count_;
  if (before != 0 && state == 0) --omit_active_count_;
  rearm_fault_filters();
}

void Engine::do_set_link(NodeId a, NodeId b, bool cut) {
  LFT_ASSERT(a >= 0 && a < n_ && b >= 0 && b < n_);
  if (config_.trace != nullptr) ++digest_.links;
  const std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
                            static_cast<std::uint32_t>(b);
  if (cut) {
    link_cuts_.insert(key);
  } else {
    link_cuts_.erase(key);
  }
  rearm_fault_filters();
}

void Engine::do_set_partition(std::span<const std::uint32_t> group_of) {
  LFT_ASSERT_MSG(static_cast<NodeId>(group_of.size()) == n_,
                 "partition group map must cover every node");
  partition_group_.assign(group_of.begin(), group_of.end());
  partition_active_ = true;
  if (config_.trace != nullptr) ++digest_.partitions;
  rearm_fault_filters();
}

void Engine::do_clear_partition() {
  partition_active_ = false;
  if (config_.trace != nullptr) ++digest_.partitions;
  rearm_fault_filters();
}

void Engine::do_takeover(NodeId v, std::unique_ptr<Process> behavior) {
  LFT_ASSERT(v >= 0 && v < n_);
  LFT_ASSERT(behavior != nullptr);
  LFT_ASSERT_MSG(in_pre_round_, "Byzantine takeover must happen in the pre-round phase");
  auto& s = status_[static_cast<std::size_t>(v)];
  LFT_ASSERT_MSG(!s.crashed, "cannot take over a crashed node");
  if (!s.byzantine) {
    ++takeovers_used_;
    LFT_ASSERT_MSG(takeovers_used_ <= config_.byzantine_budget, "Byzantine budget exceeded");
    s.byzantine = true;
  }
  processes_[static_cast<std::size_t>(v)] = std::move(behavior);
  if (config_.trace != nullptr) ++digest_.takeovers;
  // Reactivate a parked victim: the behavior runs from this round on. A node
  // is in the active set iff it is neither halted nor sleeping.
  const auto vi = static_cast<std::size_t>(v);
  if (s.halted || sleeping_[vi] != 0) {
    if (sleeping_[vi] != 0) {
      sleeping_[vi] = 0;
      --sleeping_count_;
    }
    if (s.halted) --dead_count_;  // un-halt: the node can receive again
    s.halted = false;
    reactivated_.push_back(v);
  }
  wake_at_[vi] = round_;
}

std::size_t Engine::do_add_delay_rule(NodeId src, NodeId dst, Round min_delay, Round max_delay,
                                      std::uint64_t salt) {
  LFT_ASSERT(src == kNoNode || (src >= 0 && src < n_));
  LFT_ASSERT(dst == kNoNode || (dst >= 0 && dst < n_));
  LFT_ASSERT_MSG(min_delay >= 0 && min_delay <= max_delay, "delay bounds must be ordered");
  if (config_.trace != nullptr) ++digest_.delays;
  delay_rules_.push_back(DelayRule{src, dst, min_delay, max_delay, salt, true});
  ++delay_rules_active_;
  rearm_delays();
  return delay_rules_.size() - 1;
}

void Engine::do_remove_delay_rule(std::size_t id) {
  LFT_ASSERT(id < delay_rules_.size());
  if (!delay_rules_[id].active) return;
  if (config_.trace != nullptr) ++digest_.delays;
  delay_rules_[id].active = false;
  --delay_rules_active_;
  rearm_delays();
}

void Engine::do_set_gst(Round stabilization, Round delta, std::uint64_t salt) {
  LFT_ASSERT_MSG(delta >= 1, "the post-GST delivery bound must be >= 1");
  if (config_.trace != nullptr) ++digest_.delays;
  gst_armed_ = true;
  gst_round_ = stabilization;
  gst_delta_ = delta;
  gst_salt_ = salt;
  rearm_delays();
}

void Engine::rearm_delays() noexcept {
  delays_armed_ = delay_rules_active_ > 0 || gst_armed_ || pending_delayed_count_ > 0;
}

Round Engine::delay_for(const Message& m) const noexcept {
  // The lag is a pure hash of (salt, link, tag, send round): no RNG state is
  // consumed, so the coins are identical across serial/parallel stepping and
  // independent of how many other rules or messages exist.
  const std::uint64_t link =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.from)) << 32) |
      static_cast<std::uint32_t>(m.to);
  const std::uint64_t when = (static_cast<std::uint64_t>(m.tag) << 32) |
                             static_cast<std::uint32_t>(round_);
  for (const DelayRule& rule : delay_rules_) {
    if (!rule.active) continue;
    if (rule.src != kNoNode && rule.src != m.from) continue;
    if (rule.dst != kNoNode && rule.dst != m.to) continue;
    const auto span = static_cast<std::uint64_t>(rule.max_delay - rule.min_delay) + 1;
    const std::uint64_t h = mix64(mix64(rule.salt ^ link) ^ when);
    return rule.min_delay + static_cast<Round>(h % span);
  }
  if (gst_armed_) {
    // DLS partial synchrony: a message sent at round r < GST may lag up to
    // GST - r - 1 + Δ rounds (readable by GST + Δ); after GST the lag is
    // < Δ (readable within Δ rounds of the send).
    const Round bound = round_ >= gst_round_ ? gst_delta_ - 1
                                             : gst_round_ - round_ - 1 + gst_delta_;
    if (bound <= 0) return 0;
    const std::uint64_t h = mix64(mix64(gst_salt_ ^ link) ^ when);
    return static_cast<Round>(h % (static_cast<std::uint64_t>(bound) + 1));
  }
  return 0;
}

void Engine::park_delayed(const Message& m, Round due) {
  auto it = pending_delayed_.find(due);
  if (it == pending_delayed_.end()) {
    DelayedBatch bucket;
    if (!delayed_pool_.empty()) {
      bucket = std::move(delayed_pool_.back());
      delayed_pool_.pop_back();
    }
    it = pending_delayed_.emplace(due, std::move(bucket)).first;
  }
  DelayedBatch& bucket = it->second;
  Message copy = m;
  if (m.body_len != 0) copy.set_body(bucket.arena.store(m.body()));
  bucket.msgs.push_back(copy);
  ++pending_delayed_count_;
  ++total_delayed_;  // lifetime count, read (never branched on) by telemetry
  delays_armed_ = true;  // a nonempty queue keeps the delay plane engaged
}

void Engine::rearm_fault_filters() noexcept {
  fault_filters_armed_ =
      omit_active_count_ > 0 || partition_active_ || !link_cuts_.empty();
}

bool Engine::fault_dropped(const Message& m) const noexcept {
  const auto from = static_cast<std::size_t>(m.from);
  const auto to = static_cast<std::size_t>(m.to);
  if (!omit_state_.empty() && ((omit_state_[from] & kOmitSend) != 0 ||
                               (omit_state_[to] & kOmitRecv) != 0)) {
    return true;
  }
  if (partition_active_ && partition_group_[from] != partition_group_[to]) return true;
  if (!link_cuts_.empty()) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.from)) << 32) |
        static_cast<std::uint32_t>(m.to);
    if (link_cuts_.contains(key)) return true;
  }
  return false;
}

void Engine::run_fault_phase(bool pre_round) {
  EngineView view(*this);
  FaultController control(*this);
  if (pre_round) {
    in_pre_round_ = true;
    fault_plane_.pre_round(view, control);
    in_pre_round_ = false;
    if (!reactivated_.empty()) {
      // Merge takeover victims back into the (sorted) active set.
      std::sort(reactivated_.begin(), reactivated_.end());
      const auto old_size = active_.size();
      active_.insert(active_.end(), reactivated_.begin(), reactivated_.end());
      std::inplace_merge(active_.begin(),
                         active_.begin() + static_cast<std::ptrdiff_t>(old_size),
                         active_.end());
      reactivated_.clear();
    }
  } else {
    fault_plane_.on_round(view, control);
  }
}

void Engine::step_shard(std::size_t k) {
  const std::size_t begin = shard_begin_[k];
  const std::size_t end = shard_begin_[k + 1];
  if (begin >= end) return;
  StepSink& sink = sinks_[k];
  if (recv_bounds_valid_) {
    // The fused sweep that sorted inbox_ also recorded every receiver's
    // slice bounds; no scanning needed.
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId v = active_[i];
      const std::size_t lo = recv_bounds_[static_cast<std::size_t>(v)];
      const std::size_t hi = recv_bounds_[static_cast<std::size_t>(v) + 1];
      Context ctx(*this, v, sink, !status_[static_cast<std::size_t>(v)].byzantine, tag_bits_,
                  config_.trace != nullptr);
      const Inbox inbox(std::span<const Message>(inbox_.data() + lo, hi - lo));
      const std::size_t before = sink.msgs.size();
      processes_[static_cast<std::size_t>(v)]->on_round(ctx, inbox);
      round_sends_[static_cast<std::size_t>(v)] =
          static_cast<std::uint32_t>(sink.msgs.size() - before);
    }
    return;
  }
  // First delivered message of this shard's first node: inbox_ ascends by
  // receiver, active_ ascends by id, so one cursor pairs them up.
  const NodeId first = active_[begin];
  std::size_t cursor = static_cast<std::size_t>(
      std::partition_point(inbox_.begin(), inbox_.end(),
                           [first](const Message& m) { return m.to < first; }) -
      inbox_.begin());
  for (std::size_t i = begin; i < end; ++i) {
    const NodeId v = active_[i];
    std::size_t lo = cursor;
    while (lo < inbox_.size() && inbox_[lo].to < v) ++lo;
    std::size_t hi = lo;
    while (hi < inbox_.size() && inbox_[hi].to == v) ++hi;
    cursor = hi;
    Context ctx(*this, v, sink, !status_[static_cast<std::size_t>(v)].byzantine, tag_bits_,
                config_.trace != nullptr);
    const Inbox inbox(std::span<const Message>(inbox_.data() + lo, hi - lo));
    const std::size_t before = sink.msgs.size();
    processes_[static_cast<std::size_t>(v)]->on_round(ctx, inbox);
    round_sends_[static_cast<std::size_t>(v)] =
        static_cast<std::uint32_t>(sink.msgs.size() - before);
  }
}

void Engine::step_active() {
  // Reset the arenas of the parity this round writes; the other parity backs
  // the inbox being read and is reset two rounds from now.
  const std::size_t parity = static_cast<std::size_t>(round_) & 1;
  for (auto& sink : sinks_) {
    sink.arena[parity].clear();
    sink.msgs.clear();
    sink.keys.clear();
    sink.max_tag = 0;
    sink.body_hash = 0;
    sink.header_sum = 0;
    sink.bits_sum = 0;
    sink.honest_msgs = 0;
    sink.honest_bits = 0;
    sink.slept = false;
  }

  const auto workers = sinks_.size();
  if (pool_ == nullptr || active_.size() < kParallelMinActive) {
    shard_begin_[0] = 0;
    for (std::size_t k = 1; k <= workers; ++k) shard_begin_[k] = active_.size();
    step_shard(0);
    outbox_.swap(sinks_[0].msgs);
    keys_.swap(sinks_[0].keys);
  } else {
    for (std::size_t k = 0; k < workers; ++k) {
      shard_begin_[k] = k * active_.size() / workers;
    }
    shard_begin_[workers] = active_.size();
    pool_->step_round();
    // Concatenate in shard order = ascending sender order: the batch is
    // byte-identical to what the serial path appends.
    std::size_t total = 0;
    for (const auto& sink : sinks_) total += sink.msgs.size();
    outbox_.reserve(total);
    for (auto& sink : sinks_) {
      outbox_.insert(outbox_.end(), sink.msgs.begin(), sink.msgs.end());
    }
    keys_.clear();
    keys_.reserve(total);
    for (auto& sink : sinks_) {
      keys_.insert(keys_.end(), sink.keys.begin(), sink.keys.end());
    }
  }

  std::uint32_t max_tag = 0;
  for (auto& sink : sinks_) {
    metrics_.fallback_pulls += sink.fallback_pulls;
    sink.fallback_pulls = 0;
    dead_count_ += sink.halts;  // worker halts, folded after the barrier
    sink.halts = 0;
    max_tag = std::max(max_tag, sink.max_tag);
  }
  // keys_ now mirrors outbox_ 1:1; the sort consumes (and re-validates) it.
  sent_max_tag_ = max_tag;
  sent_keys_valid_ = true;
}

void Engine::sort_batch_normal_form() {
  const std::size_t m = outbox_.size();
  recv_bounds_valid_ = false;
  // Send-path-built keys are usable only when the batch reached us intact
  // (compaction rounds cleared the flag; the size check guards adapters that
  // sort a hand-built batch). One-shot: consumed here either way.
  const bool sent_keys = sent_keys_valid_ && keys_.size() == m;
  sent_keys_valid_ = false;
  if (m <= 1) return;

  // Fused single-pass counting sort on the combined key
  // (to << tag_bits_) | tag: one histogram + scan + stable 40-byte scatter
  // replaces the two LSD passes below (half the scatter traffic), and the
  // scattered histogram doubles as the per-receiver inbox bounds step_shard
  // slices by. Engaged when the dense key domain is affordable (bounded
  // absolutely and relative to m, so the per-round memset stays amortized);
  // the result is bit-identical to the two-pass sort — both are stable
  // sorts by (to, tag) — and every gate below depends only on
  // (n, tag_bits, m, max_tag).
  const auto n64 = static_cast<std::uint64_t>(static_cast<std::uint32_t>(n_));
  std::uint32_t max_tag = sent_keys ? sent_max_tag_ : 0;
  bool have_max_tag = sent_keys;
  if (m < static_cast<std::size_t>(UINT32_MAX) && (n64 << tag_bits_) <= kMaxFusedDomain) {
    const auto* bytes = reinterpret_cast<const std::byte*>(outbox_.data());
    if (!sent_keys) {
      // Stale contents are cleared before growing so the reallocation
      // copies nothing; every key is rewritten below.
      if (keys_.capacity() < m) {
        keys_.clear();
        keys_.reserve(m);
      }
      keys_.resize(m);
      max_tag = simd::build_keys40(bytes, m, tag_bits_, keys_.data());
      have_max_tag = true;
    }
    if (max_tag >= (1u << tag_bits_) && max_tag < kMaxCountingTag) {
      // Tag outgrew the high-water key width: widen and rebuild once.
      tag_bits_ = static_cast<unsigned>(std::bit_width(max_tag));
      if ((n64 << tag_bits_) <= kMaxFusedDomain) {
        (void)simd::build_keys40(bytes, m, tag_bits_, keys_.data());
      }
    }
    const std::uint64_t domain = n64 << tag_bits_;
    if (max_tag < (1u << tag_bits_) && domain <= kMaxFusedDomain &&
        domain <= 4 * static_cast<std::uint64_t>(m) + 1024) {
      counts_.assign(static_cast<std::size_t>(domain), 0);
      simd::histogram_u32(keys_.data(), m, counts_.data());
      const std::uint32_t total = simd::exclusive_scan_u32(counts_.data(), counts_.size());
      LFT_ASSERT(total == m);
      if (inbox_.capacity() < m) {
        inbox_.clear();  // last round's batch, already consumed by the step
        inbox_.reserve(m);
      }
      inbox_.resize(m);
      auto* inbox_bytes = reinterpret_cast<std::byte*>(inbox_.data());
      // Large batches over a large key domain take the scatter in two
      // cache-blocked levels: a stable partition by the keys' high bits into
      // bucket-sequential streams, then a per-bucket scatter whose source
      // slice and destination window are both L2-resident. The direct
      // scatter keeps one open write cursor per distinct (receiver, tag);
      // once that cursor set outgrows L2 (domain beyond ~32k keys at a
      // cache line each) every record store misses, and paying one extra
      // sequential pass to shrink the live cursor set wins. Below that the
      // direct scatter is already cache-resident and strictly cheaper. Same
      // stable permutation either way — MSD partition + stable in-bucket
      // sort by the full key — so the result is bit-identical; the cutover
      // depends only on (m, domain).
      const bool two_level = m >= kTwoLevelMinM && domain >= 32768;
      if (!two_level) {
        simd::scatter_records40(bytes, m, keys_.data(), counts_.data(), inbox_bytes);
      } else {
        // Bucket count scales so each output window is ~1-2 MiB, capped so
        // the partition cursors stay within one page of L1 lines.
        const auto want = static_cast<std::uint32_t>(
            std::min<std::size_t>(256, m * sizeof(Message) >> 20));
        const std::uint32_t target = std::bit_ceil(std::max(16u, want));
        const auto dbits = static_cast<unsigned>(std::bit_width(domain - 1));
        const unsigned tbits = static_cast<unsigned>(std::countr_zero(target));
        const unsigned shift = dbits > tbits ? dbits - tbits : 0;
        const auto nbuckets =
            static_cast<std::uint32_t>((domain + (std::uint64_t{1} << shift) - 1) >> shift);
        if (keys_hi_.capacity() < m) {
          keys_hi_.clear();
          keys_hi_.reserve(m);
        }
        keys_hi_.resize(m);
        for (std::size_t i = 0; i < m; ++i) keys_hi_[i] = keys_[i] >> shift;
        std::array<std::uint32_t, 257> bcur{};
        for (std::size_t i = 0; i < m; ++i) ++bcur[keys_hi_[i]];
        std::uint32_t bsum = 0;
        for (std::uint32_t k = 0; k < nbuckets; ++k) {
          const std::uint32_t c = bcur[k];
          bcur[k] = bsum;
          bsum += c;
        }
        // Level 1: stable partition outbox -> inbox by bucket id.
        simd::scatter_records40(bytes, m, keys_hi_.data(), bcur.data(), inbox_bytes);
        // Level 2: per bucket, rebuild the full keys from the (L2-hot)
        // partitioned slice and scatter into the final positions — the
        // global cursors in counts_ already point at each key's run. The
        // destination is outbox_ itself: its records were just copied out,
        // so the sorted batch lands where the direct path's swap would put
        // it.
        auto* outbox_bytes = reinterpret_cast<std::byte*>(outbox_.data());
        std::uint32_t start = 0;
        for (std::uint32_t k = 0; k < nbuckets; ++k) {
          const std::uint32_t end = bcur[k];  // post-scatter: end of bucket k
          const std::uint32_t cnt = end - start;
          if (cnt != 0) {
            const std::byte* slice = inbox_bytes + std::size_t{start} * sizeof(Message);
            (void)simd::build_keys40(slice, cnt, tag_bits_, keys_hi_.data() + start);
            simd::scatter_records40(slice, cnt, keys_hi_.data() + start, counts_.data(),
                                    outbox_bytes);
          }
          start = end;
        }
      }
      // Post-scatter, counts_[k] is the end offset of key k's run, so the
      // end of receiver v's slice is the end of its last tag run.
      recv_bounds_.resize(static_cast<std::size_t>(n_) + 1);
      recv_bounds_[0] = 0;
      for (std::size_t v = 0; v < static_cast<std::size_t>(n_); ++v) {
        recv_bounds_[v + 1] = counts_[((v + 1) << tag_bits_) - 1];
      }
      recv_bounds_valid_ = true;
      // Leave the result where the caller expects it (it swaps the arenas);
      // the two-level path already sorted back into outbox_.
      if (!two_level) outbox_.swap(inbox_);
      return;
    }
  }

  if (!have_max_tag) {
    for (const Message& msg : outbox_) max_tag = std::max(max_tag, msg.tag);
  }
  if (max_tag >= kMaxCountingTag || m >= static_cast<std::size_t>(UINT32_MAX)) {
    std::stable_sort(outbox_.begin(), outbox_.end(), [](const Message& a, const Message& b) {
      return a.to != b.to ? a.to < b.to : a.tag < b.tag;
    });
    return;
  }

  // Pass 1 (LSD): stable counting sort by tag, outbox_ -> inbox_. The tag
  // domain is tiny (protocol enumerators), so a dense count array is cheap.
  tag_count_.assign(static_cast<std::size_t>(max_tag) + 1, 0);
  for (const Message& msg : outbox_) ++tag_count_[msg.tag];
  std::uint32_t sum = 0;
  for (auto& c : tag_count_) {
    const std::uint32_t count = c;
    c = sum;
    sum += count;
  }
  inbox_.resize(m);
  for (const Message& msg : outbox_) inbox_[tag_count_[msg.tag]++] = msg;

  // Pass 2: stable counting sort by receiver, inbox_ -> outbox_. Counts are
  // kept in an n-sized array that is all-zero between rounds; only the
  // entries actually touched are visited for the prefix sum (sorted distinct
  // receivers) when the batch is sparse, and only they are re-zeroed.
  touched_receivers_.clear();
  for (const Message& msg : inbox_) {
    auto& c = recv_count_[static_cast<std::size_t>(msg.to)];
    if (c++ == 0) touched_receivers_.push_back(msg.to);
  }
  const std::size_t distinct = touched_receivers_.size();
  sum = 0;
  if (distinct < static_cast<std::size_t>(n_) / 16) {
    std::sort(touched_receivers_.begin(), touched_receivers_.end());
    for (const NodeId r : touched_receivers_) {
      auto& c = recv_count_[static_cast<std::size_t>(r)];
      const std::uint32_t count = c;
      c = sum;
      sum += count;
    }
  } else {
    for (NodeId r = 0; r < n_; ++r) {
      auto& c = recv_count_[static_cast<std::size_t>(r)];
      if (c != 0) {  // untouched entries must stay zero
        const std::uint32_t count = c;
        c = sum;
        sum += count;
      }
    }
  }
  for (const Message& msg : inbox_) {
    outbox_[recv_count_[static_cast<std::size_t>(msg.to)]++] = msg;
  }
  // Restore the all-zero invariant by visiting only touched entries.
  for (const NodeId r : touched_receivers_) recv_count_[static_cast<std::size_t>(r)] = 0;
}

void Engine::deliver_batch() {
  const bool traced = config_.trace != nullptr;

  // Recycle the delayed bucket injected last round: its arena backed inbox
  // views through the step that just consumed them. One predictable
  // empty-check on delay-free runs.
  if (!draining_delayed_.msgs.empty()) {
    draining_delayed_.msgs.clear();
    draining_delayed_.arena.clear();
    delayed_pool_.push_back(std::move(draining_delayed_));
    draining_delayed_ = DelayedBatch{};  // moved-from arena cursors are stale
  }

  // Clean-round fast path: when nobody crashed this round, no fault filter
  // is armed, no node is crashed/halted, nobody is (going) sleeping, and no
  // timing fault is armed or in flight, no message can drop, delay, or need
  // waking — the entire per-message filter pass collapses to O(active)
  // accounting: the send path already accumulated bits, honest counts, and
  // (when traced) header digests per sink, and step_shard recorded each
  // stepped node's send count. The header sum is commutative, so folding the
  // worker-local accumulators equals what any per-message order would give.
  // The condition is a pure function of the execution, so taking this path
  // never changes a Report or RoundDigest bit.
  bool slept = false;
  for (const auto& sink : sinks_) slept = slept || sink.slept;
  if (crashed_this_round_.empty() && !fault_filters_armed_ && dead_count_ == 0 &&
      sleeping_count_ == 0 && !slept && !delays_armed_) {
    const std::size_t m = outbox_.size();
    if (traced) {
      digest_.sent = m;
      std::uint64_t header_sum = 0;
      for (const auto& sink : sinks_) header_sum += sink.header_sum;
      digest_.payload_hash = digest_messages_final(header_sum, m);
    }
    std::int64_t bits_sum = 0;
    std::int64_t honest_msgs = 0;
    std::int64_t honest_bits = 0;
    for (const auto& sink : sinks_) {
      bits_sum += sink.bits_sum;
      honest_msgs += sink.honest_msgs;
      honest_bits += sink.honest_bits;
    }
    metrics_.messages_total += static_cast<std::int64_t>(m);
    metrics_.bits_total += bits_sum;
    metrics_.messages_honest += honest_msgs;
    metrics_.bits_honest += honest_bits;
    // active_ is exactly the stepped set here (compaction happens after
    // delivery, and a round that halted or crashed anyone took the slow
    // path), so every entry's round_sends_ slot is fresh.
    for (const NodeId v : active_) {
      status_[static_cast<std::size_t>(v)].sends += round_sends_[static_cast<std::size_t>(v)];
    }
    metrics_.peak_round_messages =
        std::max(metrics_.peak_round_messages, static_cast<std::int64_t>(m));
    sort_batch_normal_form();
    inbox_.swap(outbox_);
    outbox_.clear();
    return;
  }

  // One compaction pass over the arena: drop crashed senders' messages (minus
  // the ones their keep-filter saves), account the survivors, and drop
  // messages whose receiver can no longer accept them. Survivors shift left
  // in place, so the steady state allocates nothing.
  std::size_t kept = 0;
  sent_keys_valid_ = false;  // compaction breaks the keys_/outbox_ alignment
  const bool fault_filters = fault_filters_armed_;
  // Trace accounting rides the existing drop branches: the sent-batch header
  // sum was accumulated at send time (fields in registers, no extra DRAM
  // pass), the rare dropped messages are subtracted below, and with no sink
  // installed only the predictable `traced` branches remain.
  std::uint64_t dropped_sum = 0;
  std::uint64_t sent_sum = 0;
  if (traced) {
    digest_.sent = outbox_.size();
    for (const auto& sink : sinks_) sent_sum += sink.header_sum;
  }
  for (std::size_t i = 0; i < outbox_.size(); ++i) {
    const Message& m = outbox_[i];
    const auto from = static_cast<std::size_t>(m.from);
    const std::int32_t filter = crash_filter_[from];
    if (filter != kNotCrashedThisRound) {
      const bool saved =
          filter >= 0 && keep_filters_[static_cast<std::size_t>(filter)](m);
      if (!saved) {  // lost in the crash
        if (traced) {
          ++digest_.lost_crash;
          dropped_sum += digest_header(m);
        }
        continue;
      }
    }
    metrics_.messages_total += 1;
    metrics_.bits_total += static_cast<std::int64_t>(m.bits);
    auto& sender = status_[from];
    if (!sender.byzantine) {
      metrics_.messages_honest += 1;
      metrics_.bits_honest += static_cast<std::int64_t>(m.bits);
    }
    sender.sends += 1;
    // Omission / partition / link faults lose the message in transit: the
    // sender paid for it (accounted above), the receiver never sees it.
    if (fault_filters && fault_dropped(m)) {
      if (traced) {
        ++digest_.lost_fault;
        dropped_sum += digest_header(m);
      }
      continue;
    }
    // Timing faults hold the message in transit instead of losing it: the
    // sender paid for it above, and the whole record (body bytes copied)
    // parks in the bucket injected into round (round_ + lag)'s sweep, so it
    // becomes readable exactly lag rounds late. Receiver liveness is judged
    // at delivery time, not here.
    if (delays_armed_) {
      const Round lag = delay_for(m);
      if (lag > 0) {
        if (traced) {
          ++digest_.delayed;
          dropped_sum += digest_header(m);
        }
        park_delayed(m, round_ + lag);
        continue;
      }
    }
    const auto to = static_cast<std::size_t>(m.to);
    if (status_[to].crashed || status_[to].halted) {  // never received
      if (traced) {
        ++digest_.lost_dead;
        dropped_sum += digest_header(m);
      }
      continue;
    }
    wake_by(m.to, round_ + 1);  // delivery always wakes the recipient
    if (kept != i) outbox_[kept] = m;
    ++kept;
  }
  outbox_.resize(kept);
  // Inject the messages whose due round is now: they join the batch after
  // this round's own survivors (the stable sort below groups them by
  // (receiver, tag), late arrivals after on-time ones within a group) and
  // become readable next round. A receiver that crashed or halted while the
  // message was in transit never sees it (lost_dead); live recipients are
  // woken exactly as for on-time delivery.
  std::uint64_t injected_sum = 0;
  if (delays_armed_) {
    const auto due = pending_delayed_.find(round_);
    if (due != pending_delayed_.end()) {
      for (const Message& m : due->second.msgs) {
        --pending_delayed_count_;
        const auto to = static_cast<std::size_t>(m.to);
        if (status_[to].crashed || status_[to].halted) {
          if (traced) ++digest_.lost_dead;
          continue;
        }
        wake_by(m.to, round_ + 1);
        if (traced) injected_sum += digest_header(m);
        outbox_.push_back(m);
      }
      // The bucket's arena backs the injected bodies until next round's step
      // has read them; recycled one round from now (see the top).
      draining_delayed_ = std::move(due->second);
      pending_delayed_.erase(due);
      rearm_delays();
    }
  }
  const std::size_t kept_total = outbox_.size();
  if (traced) {
    // Delivered-header digest = (sum of sent headers) - (sum of dropped and
    // parked headers) + (sum of injected due headers): equal to
    // digest_messages over the delivered batch, without touching any
    // surviving message again.
    digest_.payload_hash =
        digest_messages_final(sent_sum - dropped_sum + injected_sum, kept_total);
  }
  metrics_.peak_round_messages =
      std::max(metrics_.peak_round_messages, static_cast<std::int64_t>(kept_total));

  // Two-pass counting/radix sweep into delivery normal form: group by
  // (receiver, tag). The arena is appended in ascending sender order and
  // both passes are stable, so each (receiver, tag) run stays sorted by
  // sender with per-sender send order preserved.
  sort_batch_normal_form();
  inbox_.swap(outbox_);
  outbox_.clear();
}

Report Engine::run() {
  for (NodeId v = 0; v < n_; ++v) {
    LFT_ASSERT_MSG(processes_[static_cast<std::size_t>(v)] != nullptr,
                   "every node needs a Process before run()");
  }

  Report report;
  bool completed = false;

  for (round_ = 0; round_ < config_.max_rounds; ++round_) {
    // 0a. Fault plane, pre-round phase: omission/partition/link windows and
    //     Byzantine takeovers that affect this round's sends.
    if (!fault_plane_.empty()) run_fault_phase(/*pre_round=*/true);

    // 0b. Wake sleepers whose timer (or a message) is due. Heap entries are
    //    lazily invalidated: only nodes still marked sleeping with a due wake
    //    round count.
    woken_.clear();
    while (!sleep_heap_.empty() && sleep_heap_.top().first <= round_) {
      const NodeId v = sleep_heap_.top().second;
      sleep_heap_.pop();
      const auto vi = static_cast<std::size_t>(v);
      if (sleeping_[vi] == 0 || wake_at_[vi] > round_) continue;
      sleeping_[vi] = 0;
      --sleeping_count_;
      woken_.push_back(v);
    }
    if (!woken_.empty()) {
      std::sort(woken_.begin(), woken_.end());
      const auto old_size = active_.size();
      active_.insert(active_.end(), woken_.begin(), woken_.end());
      std::inplace_merge(active_.begin(),
                         active_.begin() + static_cast<std::ptrdiff_t>(old_size),
                         active_.end());
    }

    // 1. Step every active node in id order (serially or sharded across the
    //    worker pool — bit-identical either way), filling outbox_ with the
    //    round's sends in ascending sender order.
    const std::uint64_t step_start = tele_ != nullptr ? obs::now_ns() : 0;
    step_active();
    if (tele_ != nullptr) {
      tele_->step_ns.record(obs::now_ns() - step_start);
      tele_->round_active.record(active_.size());
    }

    // 2. Fault plane, post-step phase: the adaptive adversary inspects this
    //    round's pending sends and node states (crashes classically land
    //    here).
    if (!fault_plane_.empty()) run_fault_phase(/*pre_round=*/false);

    // 3. Filter, account, and sort this round's batch for delivery.
    //    Telemetry brackets the batch with message conservation: everything
    //    entering the round (in-flight delayed + fresh sends) leaves it as
    //    delivered, still-delayed, or lost (crash/fault/dead).
    const std::int64_t tele_pending_before = pending_delayed_count_;
    const std::uint64_t tele_delayed_before = total_delayed_;
    const std::uint64_t tele_sent = tele_ != nullptr ? outbox_.size() : 0;
    deliver_batch();
    if (tele_ != nullptr) {
      const auto delivered = static_cast<std::uint64_t>(inbox_.size());
      const std::uint64_t newly_delayed = total_delayed_ - tele_delayed_before;
      const std::int64_t lost = tele_pending_before + static_cast<std::int64_t>(tele_sent) -
                                static_cast<std::int64_t>(delivered) - pending_delayed_count_;
      tele_->rounds.inc();
      tele_->sent_total.add(tele_sent);
      tele_->delivered_total.add(delivered);
      tele_->delayed_total.add(newly_delayed);
      tele_->lost_total.add(static_cast<std::uint64_t>(std::max<std::int64_t>(lost, 0)));
      tele_->round_delivered.record(delivered);
      tele_->round_delayed.record(newly_delayed);
      tele_->round_lost.record(static_cast<std::uint64_t>(std::max<std::int64_t>(lost, 0)));
      std::size_t arena_bytes = 0;
      for (const auto& sink : sinks_) {
        arena_bytes += sink.arena[0].bytes_stored() + sink.arena[1].bytes_stored();
      }
      tele_->arena_bytes.set_max(static_cast<std::int64_t>(arena_bytes));
    }

    // 3b. Emit this round's trace digest (inbox_ now holds the delivered
    //     batch in normal form; active_ is still the set that was stepped).
    if (config_.trace != nullptr) {
      digest_.round = round_;
      digest_.delivered = inbox_.size();
      digest_.active_hash = digest_nodes(active_);
      for (const auto& sink : sinks_) digest_.body_hash ^= sink.body_hash;
      config_.trace->on_round(digest_);
      digest_ = RoundDigest{};
    }

    // Reset only the crash slots touched this round; keep-filter slots are
    // released (captured state freed) but their storage is reused.
    for (const NodeId v : crashed_this_round_) {
      crash_filter_[static_cast<std::size_t>(v)] = kNotCrashedThisRound;
    }
    crashed_this_round_.clear();
    for (std::size_t i = 0; i < keep_filters_used_; ++i) keep_filters_[i] = nullptr;
    keep_filters_used_ = 0;

    // 4. Drop crashed/halted nodes from the active set and park sleepers;
    //    done when nobody is active or sleeping.
    std::erase_if(active_, [this](NodeId v) {
      const auto vi = static_cast<std::size_t>(v);
      const auto& s = status_[vi];
      if (s.crashed || s.halted) return true;
      if (wake_at_[vi] > round_ + 1) {
        sleeping_[vi] = 1;
        ++sleeping_count_;
        sleep_heap_.emplace(wake_at_[vi], v);
        return true;
      }
      return false;
    });
    // Messages still in transit keep the engine ticking (a delivery may wake
    // a sleeping or future receiver; undeliverable ones resolve to lost_dead
    // at their due round), so conservation holds over the whole trace.
    if (active_.empty() && sleeping_count_ == 0 && pending_delayed_count_ == 0) {
      completed = true;
      ++round_;  // this round still counts
      break;
    }
  }

  for (const auto& s : status_) {
    metrics_.max_sends_per_node = std::max(metrics_.max_sends_per_node, s.sends);
  }
  metrics_.rounds = round_;
  report.rounds = round_;
  report.completed = completed;
  report.metrics = metrics_;
  report.nodes = status_;
  return report;
}

}  // namespace lft::sim
