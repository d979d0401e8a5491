#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/assert.hpp"
#include "common/cpus.hpp"
#include "common/simd.hpp"
#include "obs/obs.hpp"

namespace lft::sim {

namespace {
constexpr std::int32_t kNotCrashedThisRound = -2;
constexpr std::int32_t kCleanCrash = -1;
// Tag values are small enumerators; a round whose largest tag reaches this
// is degenerate and every bucket of its sort takes the comparison sort (same
// normal form, so still deterministic).
constexpr std::uint32_t kMaxCountingTag = 1u << 16;
// Below this many active nodes a round is stepped serially even with a
// worker pool: the barrier handshake would dominate. Purely a latency knob —
// results are bit-identical either way.
constexpr std::size_t kParallelMinActive = 256;
// Cap on a derived worker count. Measured (docs/architecture.md, Why the
// cap is 4): 4 workers beat 2 by 13% on gossip_2k and by 8% on
// consensus_1e5, where only 29 of 25,062 rounds per execution wake the pool
// for the step, and its dense rounds also sort on it. No width above 4 was
// measured.
constexpr int kMaxDerivedThreads = 4;
thread_local bool t_step_serially = false;
// Delay buckets a scratch keeps, sized to lags <= 2 (delay_parallel_flood:
// two pending plus one draining). An allocator-placement mitigation only:
// fresh buckets landed on just-returned pages. Moving the n-sized arrays
// into EngineScratch (ROADMAP) may let the pool go.
constexpr std::size_t kRecycledBuckets = 3;

// Batch size from which delivery compacts and sorts on the stepper's shards
// (measured crossover: docs/architecture.md, The message plane). Below it
// shard 0 does both inline.
constexpr std::size_t kPartitionMinM = std::size_t{1} << 16;
// The sort's receiver buckets (to >> shift), measured in docs/architecture.md,
// The message plane: at most 256, so a chunk's histogram and scatter cursors
// are one stack array each; about 64 when the per-bucket key domain still
// fits 2^13 u32 counts (32 KiB, L1-resident), because fewer buckets make the
// scatter into them cheaper; and at most one per 16 messages, so a sparse
// batch pays for few buckets and a batch under 16 messages is one bucket.
constexpr unsigned kMaxBucketBits = 8;
constexpr unsigned kBucketBits = 6;
constexpr unsigned kBucketKeyBits = 13;
constexpr std::size_t kBucketMessages = 16;
// A bucket is counting-sorted when its key domain (receivers << tag_bits)
// fits kMaxKeyBits bits and is at most kDenseFactor times its message count;
// otherwise its positions are sorted by (to, tag, position) and gathered.
constexpr unsigned kMaxKeyBits = 22;
constexpr std::size_t kDenseFactor = 64;

// Resizes a sort buffer whose contents are dead (every slot is rewritten
// next): stale contents are cleared before growing, so a reallocation
// copies nothing.
template <typename T>
void resize_discarding(std::vector<T>& buffer, std::size_t size) {
  if (buffer.capacity() < size) {
    buffer.clear();
    buffer.reserve(size);
  }
  buffer.resize(size);
}
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
        fault_pre_round_ns(registry.histogram("lft_engine_fault_pre_round_ns")),
        wake_ns(registry.histogram("lft_engine_wake_ns")),
        step_ns(registry.histogram("lft_engine_step_ns")),
        post_step_ns(registry.histogram("lft_engine_post_step_ns")),
        compact_ns(registry.histogram("lft_engine_compact_ns")),
        sort_ns(registry.histogram("lft_engine_sort_ns")),
        settle_ns(registry.histogram("lft_engine_settle_ns")),
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
  obs::Histogram& fault_pre_round_ns;
  obs::Histogram& wake_ns;
  obs::Histogram& step_ns;
  obs::Histogram& post_step_ns;
  obs::Histogram& compact_ns;
  obs::Histogram& sort_ns;
  obs::Histogram& settle_ns;
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
  engine_->status_[static_cast<std::size_t>(self_)].halted = true;
  engine_->dead_[static_cast<std::size_t>(self_)] = 1;
}

void Context::sleep_until(Round wake_round) { engine_->do_sleep(self_, wake_round); }

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

std::int64_t EngineView::omissions_used() const noexcept { return engine_->omissions_used_; }

std::span<const Message> EngineView::pending_sends() const noexcept {
  return engine_->sinks_[0].msgs;
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

/// Persistent worker pool for the engine's sharded jobs (the parallel
/// stepper and a large batch's compaction and sort). Workers park on a
/// condition variable between jobs; the coordinating thread runs shard 0
/// itself, so a pool of W shards spawns W-1 threads. The mutex handshake
/// publishes the job and orders every worker's writes before the
/// coordinator resumes.
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

  /// Dispatches shards 1..W-1 of `job` to the pool, runs shard 0 inline,
  /// and returns once every shard finished.
  void run(ShardJob job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++generation_;
      job_ = job;
      pending_ = static_cast<int>(threads_.size());
    }
    cv_start_.notify_all();
    job(*engine_, 0);
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void worker_loop(std::size_t shard) {
    std::uint64_t seen = 0;
    while (true) {
      ShardJob job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      job(*engine_, shard);
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
  ShardJob job_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

// ---- Engine ----------------------------------------------------------------

void step_serially_on_this_thread() noexcept { t_step_serially = true; }

Engine::Engine(NodeId n, EngineConfig config)
    : n_(n),
      config_(config),
      processes_(static_cast<std::size_t>(n)),
      status_(static_cast<std::size_t>(n)),
      dead_(static_cast<std::size_t>(n), 0),
      wake_at_(static_cast<std::size_t>(n), 0),
      sleeping_(static_cast<std::size_t>(n), 0),
      crash_filter_(static_cast<std::size_t>(n), kNotCrashedThisRound) {
  LFT_ASSERT(n > 0);
  if (config_.telemetry != nullptr) {
    tele_ = std::make_unique<Telemetry>(*config_.telemetry);
  }
  active_.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) active_.push_back(v);
  int workers = 1;
  if (static_cast<std::size_t>(n_) >= kParallelMinActive) {
    workers = config_.threads >= 1 ? std::min(config_.threads, 64)
              : t_step_serially    ? 1
                                   : std::min(usable_cpus(), kMaxDerivedThreads);
  }
  sinks_.resize(static_cast<std::size_t>(workers));
  shard_begin_.assign(static_cast<std::size_t>(workers) + 1, 0);
  compact_.resize(static_cast<std::size_t>(workers) + 1);
  if (config_.scratch != nullptr) {
    // Adopt the recycled buffers: contents are cleared, but vector capacity
    // and arena chunks carry over from the previous execution in this slot.
    EngineScratch& scratch = *config_.scratch;
    ++scratch.adoptions;
    if (scratch.inbox.capacity() != 0 || scratch.sink.msgs.capacity() != 0) {
      ++scratch.recycles;  // warm buffers left by a previous execution
    }
    sinks_[0] = std::move(scratch.sink);
    sinks_[0].msgs.clear();
    sinks_[0].arena[0].clear();
    sinks_[0].arena[1].clear();
    sinks_[0].fallback_pulls = 0;
    inbox_ = std::move(scratch.inbox);
    inbox_.clear();
    delayed_spares_ = std::move(scratch.delayed);
  }
  if (workers > 1) workers_ = std::make_unique<Pool>(*this, workers - 1);
}

Engine::~Engine() {
  if (config_.scratch != nullptr) {
    // Release the buffers (capacity and arena chunks intact) back to the
    // scratch so the next execution in this slot can adopt them.
    EngineScratch& scratch = *config_.scratch;
    scratch.sink = std::move(sinks_[0]);
    scratch.inbox = std::move(inbox_);
    if (draining_delayed_.msgs.capacity() != 0) recycle_drained();
    // Only the largest few buckets go back: a later execution may grow any
    // spare it takes, so an unbounded pool would all grow to the largest.
    std::sort(delayed_spares_.begin(), delayed_spares_.end(),
              [](const DelayedBatch& a, const DelayedBatch& b) {
                return a.msgs.capacity() > b.msgs.capacity();
              });
    if (delayed_spares_.size() > kRecycledBuckets) delayed_spares_.resize(kRecycledBuckets);
    scratch.delayed = std::move(delayed_spares_);
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

bool Engine::wake_receiver(std::size_t v) noexcept {
  Round& wake = wake_at_[v];
  if (wake <= round_ + 1) return false;
  wake = round_ + 1;
  return sleeping_[v] != 0;
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
  s.crash_round = round_;
  dead_[static_cast<std::size_t>(v)] = 1;
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
    s.halted = false;
    dead_[vi] = 0;
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
    if (!delayed_spares_.empty()) {
      bucket = std::move(delayed_spares_.back());
      delayed_spares_.pop_back();
    }
    it = pending_delayed_.emplace(due, std::move(bucket)).first;
  }
  DelayedBatch& bucket = it->second;
  Message copy = m;
  if (m.body_len != 0) copy.set_body(bucket.arena.store(m.body()));
  bucket.msgs.push_back(copy);
  ++pending_delayed_count_;
  ++total_delayed_;  // lifetime count, read (never branched on) by telemetry
}

void Engine::recycle_drained() {
  draining_delayed_.msgs.clear();
  draining_delayed_.arena.clear();
  delayed_spares_.push_back(std::move(draining_delayed_));
  draining_delayed_ = DelayedBatch{};  // moved-from arena cursors are stale
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

void Engine::run_shards(ShardJob job) {
  if (part_.shards > 1) {
    workers_->run(job);
  } else {
    job(*this, 0);
  }
}

void Engine::step_shard(std::size_t k) {
  const std::size_t begin = shard_begin_[k];
  const std::size_t end = shard_begin_[k + 1];
  if (begin >= end) return;
  StepSink& sink = sinks_[k];
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
    Context ctx(*this, v, sink, config_.trace != nullptr);
    const Inbox inbox(std::span<const Message>(inbox_.data() + lo, hi - lo));
    processes_[static_cast<std::size_t>(v)]->on_round(ctx, inbox);
  }
}

void Engine::step_active() {
  // Reset the arenas of the parity this round writes; the other parity backs
  // the inbox being read and is reset two rounds from now.
  const std::size_t parity = static_cast<std::size_t>(round_) & 1;
  for (auto& sink : sinks_) {
    sink.arena[parity].clear();
    sink.msgs.clear();
    sink.body_hash = 0;
    sink.header_sum = 0;
  }

  const auto workers = sinks_.size();
  if (workers_ == nullptr || active_.size() < kParallelMinActive) {
    shard_begin_[1] = active_.size();  // shard_begin_[0] is always 0
    step_shard(0);
  } else {
    for (std::size_t k = 1; k <= workers; ++k) {
      shard_begin_[k] = k * active_.size() / workers;
    }
    // Room for the largest round so far in every sink, allocated here: a
    // sink grown on its worker would strand the outgrown buffers in that
    // thread's malloc arena, and capacity no round writes costs no memory.
    std::vector<Message>& outbox = sinks_[0].msgs;
    for (std::size_t k = 1; k < workers; ++k) sinks_[k].msgs.reserve(outbox.capacity());
    workers_->run([](Engine& engine, std::size_t k) { engine.step_shard(k); });
    // Append shards 1.. to shard 0's sends in shard order = ascending sender
    // order: the batch is byte-identical to what the serial path appends.
    std::size_t total = 0;
    for (const auto& sink : sinks_) total += sink.msgs.size();
    outbox.reserve(total);
    for (std::size_t k = 1; k < workers; ++k) {
      outbox.insert(outbox.end(), sinks_[k].msgs.begin(), sinks_[k].msgs.end());
    }
  }

  for (auto& sink : sinks_) {
    metrics_.fallback_pulls += sink.fallback_pulls;
    sink.fallback_pulls = 0;
  }
}

void Engine::compact_shard(std::size_t k) {
  // One pass over the chunk: drop crashed senders' messages (minus the ones
  // their keep filter saves), account the survivors, lose in-transit faults,
  // hold delayed messages and drop messages whose receiver is dead.
  // Survivors shift left in place to [begin, kept), so the steady state
  // allocates nothing. The chunk holds whole sender runs (the
  // outbox ascends by sender), so the sender-side state — the crash filter,
  // `byzantine` and `sends` — is read and written once per run, by this
  // shard alone. The survivors' receiver-bucket histogram and largest tag
  // ride the same pass, so the sort never re-reads the batch to count it.
  CompactShard& shard = compact_[k];
  Message* msgs = sinks_[0].msgs.data();
  const std::uint8_t* dead = dead_.data();
  const bool traced = config_.trace != nullptr;
  const bool fault_filters = fault_filters_armed_;
  const bool delays = delays_armed_;
  const unsigned shift = part_.shift;
  std::array<std::uint32_t, std::size_t{1} << kMaxBucketBits> hist;
  std::fill_n(hist.begin(), part_.buckets, 0u);
  std::uint32_t max_tag = 0;
  std::size_t kept = shard.begin;
  std::int64_t messages = 0;
  std::int64_t bits = 0;
  std::int64_t honest_messages = 0;
  std::int64_t honest_bits = 0;
  const std::size_t end = shard.end;
  for (std::size_t i = shard.begin; i < end;) {
    const NodeId from = msgs[i].from;
    const std::int32_t filter = crash_filter_[static_cast<std::size_t>(from)];
    std::int64_t run_messages = 0;
    std::int64_t run_bits = 0;
    // Survivors are written at kept <= i, so msgs[i] is still unread here.
    for (; i < end && msgs[i].from == from; ++i) {
      const Message& m = msgs[i];
      if (filter != kNotCrashedThisRound) {
        const bool saved =
            filter >= 0 && keep_filters_[static_cast<std::size_t>(filter)](m);
        if (!saved) {  // lost in the crash
          if (traced) {
            ++shard.lost_crash;
            shard.dropped_sum += digest_header(m);
          }
          continue;
        }
      }
      run_messages += 1;
      run_bits += static_cast<std::int64_t>(m.bits);
      // Omission / partition / link faults lose the message in transit: the
      // sender paid for it (accounted above), the receiver never sees it.
      if (fault_filters && fault_dropped(m)) {
        if (traced) {
          ++shard.lost_fault;
          shard.dropped_sum += digest_header(m);
        }
        continue;
      }
      // Timing faults hold the message in transit instead of losing it: the
      // sender paid for it above, and the record (body bytes copied) parks
      // in the bucket injected into round (round_ + lag)'s sweep, so it
      // becomes readable exactly lag rounds late. Receiver liveness is
      // judged at delivery time, not here. Shard 0 runs on the coordinator
      // and parks at once; a worker's shard queues its messages for the
      // coordinator, which parks them after shard 0's, in shard order.
      if (delays) {
        const Round lag = delay_for(m);
        if (lag > 0) {
          if (traced) {
            ++shard.delayed;
            shard.dropped_sum += digest_header(m);
          }
          if (k == 0) {
            park_delayed(m, round_ + lag);
          } else {
            shard.parked.emplace_back(round_ + lag, m);
          }
          continue;
        }
      }
      const auto to = static_cast<std::uint32_t>(m.to);
      if (dead[to] != 0) {  // never received
        if (traced) {
          ++shard.lost_dead;
          shard.dropped_sum += digest_header(m);
        }
        continue;
      }
      ++hist[to >> shift];
      max_tag = std::max(max_tag, m.tag);
      if (kept != i) msgs[kept] = m;
      ++kept;
    }
    NodeStatus& sender = status_[static_cast<std::size_t>(from)];
    sender.sends += run_messages;
    messages += run_messages;
    bits += run_bits;
    if (!sender.byzantine) {
      honest_messages += run_messages;
      honest_bits += run_bits;
    }
  }
  shard.kept = kept;
  shard.messages = messages;
  shard.bits = bits;
  shard.honest_messages = honest_messages;
  shard.honest_bits = honest_bits;
  shard.max_tag = max_tag;
  std::copy_n(hist.begin(), part_.buckets,
              part_.cursors.begin() + static_cast<std::ptrdiff_t>(k * part_.buckets));
}

void Engine::partition_scatter(std::size_t k) {
  const Message* src = sinks_[0].msgs.data();
  const std::size_t shards = part_.shards;
  const unsigned shift = part_.shift;
  Message* dst = inbox_.data();
  // The last shard scatters the injected chunk too: its cursors follow
  // every compaction chunk's within each bucket.
  const std::size_t last = k + 1 == shards ? shards : k;
  for (std::size_t c = k; c <= last; ++c) {
    std::array<std::uint32_t, std::size_t{1} << kMaxBucketBits> cursor{};
    std::copy_n(part_.cursors.begin() + static_cast<std::ptrdiff_t>(c * part_.buckets),
                part_.buckets, cursor.begin());
    for (std::size_t i = compact_[c].begin; i < compact_[c].kept; ++i) {
      const Message& msg = src[i];
      dst[cursor[static_cast<std::uint32_t>(msg.to) >> shift]++] = msg;
    }
  }
}

void Engine::partition_sort_buckets(std::size_t k) {
  const unsigned shift = part_.shift;
  const unsigned tag_bits = tag_bits_;
  const auto n = static_cast<std::uint32_t>(n_);
  std::uint32_t* keys = keys_.data();
  const Message* src = inbox_.data();
  Message* dst = sinks_[0].msgs.data();
  std::vector<NodeId>& sleepers = compact_[k].sleepers;
  for (std::size_t b = part_.shard_buckets[k]; b < part_.shard_buckets[k + 1]; ++b) {
    const std::uint32_t begin = part_.bucket_begin[b];
    const std::uint32_t end = part_.bucket_begin[b + 1];
    if (begin == end) continue;
    const auto base = static_cast<std::uint32_t>(b << shift);
    const std::uint32_t receivers = std::min(n - base, 1u << shift);
    const std::size_t domain = std::size_t{receivers} << tag_bits;
    // Delivery wakes every receiver with a nonempty slice; the bucket's
    // receivers are this shard's alone, and parked ones queue for the
    // sleep heap.
    auto wake = [this, &sleepers](std::uint32_t v) {
      if (wake_receiver(v)) sleepers.push_back(static_cast<NodeId>(v));
    };
    if (part_.counting && domain <= kDenseFactor * (end - begin)) {
      // Stable counting sort by the local key ((to - base) << tag_bits) |
      // tag into the bucket's own window of dst: the histogram is scanned
      // from the window's start.
      std::uint32_t* counts = counts_.data() + k * part_.domain;
      std::fill_n(counts, domain, 0u);
      for (std::uint32_t i = begin; i < end; ++i) {
        const std::uint32_t key =
            ((static_cast<std::uint32_t>(src[i].to) - base) << tag_bits) | src[i].tag;
        keys[i] = key;
        ++counts[key];
      }
      std::uint32_t sum = begin;
      for (std::size_t j = 0; j < domain; ++j) {
        const std::uint32_t count = counts[j];
        counts[j] = sum;
        sum += count;
      }
      simd::scatter_records40(reinterpret_cast<const std::byte*>(src + begin), end - begin,
                              keys + begin, counts, reinterpret_cast<std::byte*>(dst));
      // Post-scatter counts[key] is the end of key's run, so a receiver's
      // slice ends where the run of its largest possible tag ends.
      std::uint32_t lo = begin;
      for (std::uint32_t r = 0; r < receivers; ++r) {
        const std::uint32_t hi = counts[((r + 1) << tag_bits) - 1];
        if (hi != lo) wake(base + r);
        lo = hi;
      }
    } else {
      // A sparse bucket, or a round of degenerate tags: sort the window's
      // positions by (to, tag, position) in place, which allocates nothing
      // and is stable, then gather the records.
      std::iota(keys + begin, keys + end, begin);
      std::sort(keys + begin, keys + end, [src](std::uint32_t x, std::uint32_t y) {
        if (src[x].to != src[y].to) return src[x].to < src[y].to;
        return src[x].tag != src[y].tag ? src[x].tag < src[y].tag : x < y;
      });
      for (std::uint32_t i = begin; i < end; ++i) {
        dst[i] = src[keys[i]];
        if (i == begin || dst[i].to != dst[i - 1].to) wake(static_cast<std::uint32_t>(dst[i].to));
      }
    }
  }
}

void Engine::sort_batch() {
  // Two-level stable sort on the batch's shards (W on the sharded route,
  // one inline shard otherwise). Chunk c < shards is compaction shard c's
  // survivor range and chunk `shards` the injected delayed messages, in
  // batch order; the compaction already histogrammed every chunk over the
  // receiver buckets to >> shift. Then:
  //   1. the coordinator scans bucket-major, then chunk-major, so chunk
  //      c's share of bucket b lands after chunks 0..c-1's;
  //   2. each shard scatters its chunk stably into inbox_;
  //   3. each shard sorts a contiguous range of buckets, dealt by message
  //      count, back into the same window of the outbox: by a counting
  //      sort on ((to - base) << tag_bits_) | tag when the bucket is dense,
  //      else by sorting its positions on (to, tag, position); then it
  //      wakes the bucket's receivers.
  // Both levels are stable, and a stable sort by (to, tag) has exactly one
  // output, so the batch is bit-identical for every shard and bucket count
  // and either kernel.
  std::vector<Message>& outbox = sinks_[0].msgs;
  const std::size_t shards = part_.shards;
  const std::size_t buckets = part_.buckets;
  std::uint32_t max_tag = 0;
  for (std::size_t c = 0; c <= shards; ++c) max_tag = std::max(max_tag, compact_[c].max_tag);
  if (max_tag >= (1u << tag_bits_) && max_tag < kMaxCountingTag) {
    tag_bits_ = static_cast<unsigned>(std::bit_width(max_tag));
  }
  part_.bucket_begin.resize(buckets + 1);
  std::uint32_t sum = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    part_.bucket_begin[b] = sum;
    for (std::size_t c = 0; c <= shards; ++c) {
      std::uint32_t& cursor = part_.cursors[c * buckets + b];
      const std::uint32_t count = cursor;
      cursor = sum;
      sum += count;
    }
  }
  part_.bucket_begin[buckets] = sum;
  const std::size_t m = sum;
  // Every buffer the shards write is sized here, on the coordinator
  // (inbox_ holds last round's batch, already consumed by the step). The
  // counting kernel's histograms are sized only when the widest bucket
  // would be dense holding the whole batch.
  resize_discarding(inbox_, m);
  resize_discarding(keys_, m);
  const std::size_t width = std::min(static_cast<std::size_t>(n_), std::size_t{1} << part_.shift);
  part_.domain = width << tag_bits_;
  part_.counting = max_tag < kMaxCountingTag && part_.shift + tag_bits_ <= kMaxKeyBits &&
                   part_.domain <= kDenseFactor * m;
  if (part_.counting) counts_.resize(shards * part_.domain);
  run_shards([](Engine& engine, std::size_t k) { engine.partition_scatter(k); });
  // Deal the buckets in contiguous ranges: shard k - 1's range ends at
  // the first bucket that starts at or past k m / W.
  part_.shard_buckets.resize(shards + 1);
  part_.shard_buckets[0] = 0;
  for (std::size_t k = 1; k < shards; ++k) {
    const auto target = static_cast<std::uint32_t>(k * m / shards);
    part_.shard_buckets[k] = static_cast<std::size_t>(
        std::lower_bound(part_.bucket_begin.begin(),
                         part_.bucket_begin.begin() + static_cast<std::ptrdiff_t>(buckets),
                         target) -
        part_.bucket_begin.begin());
  }
  part_.shard_buckets[shards] = buckets;
  run_shards([](Engine& engine, std::size_t k) { engine.partition_sort_buckets(k); });
  outbox.resize(m);
  inbox_.swap(outbox);
  outbox.clear();
}

void Engine::deliver_batch() {
  std::vector<Message>& outbox = sinks_[0].msgs;
  const bool traced = config_.trace != nullptr;
  const std::uint64_t compact_start = tele_ != nullptr ? obs::now_ns() : 0;

  // Recycle the delayed bucket injected last round: its arena backed inbox
  // views through the step that just consumed them. One predictable
  // empty-check on delay-free runs.
  if (!draining_delayed_.msgs.empty()) recycle_drained();

  // One rule picks the route: a batch of kPartitionMinM messages or more
  // (this round's sends plus the delayed messages due now) is compacted and
  // sorted on the stepper's shards — one inline shard on a serial engine —
  // and a smaller one by shard 0 alone, inline.
  const auto due = delays_armed_ ? pending_delayed_.find(round_) : pending_delayed_.end();
  const std::size_t sent = outbox.size();
  const std::size_t batch =
      sent + (due != pending_delayed_.end() ? due->second.msgs.size() : 0);
  LFT_ASSERT(batch < static_cast<std::size_t>(UINT32_MAX));  // u32 sort offsets
  const std::size_t shards = batch >= kPartitionMinM ? sinks_.size() : 1;
  part_.shards = shards;
  // The receiver buckets (see kBucketBits): about 64, at most 256, at most
  // one per kBucketMessages.
  const auto top = static_cast<unsigned>(std::bit_width(static_cast<std::uint32_t>(n_ - 1)));
  const unsigned fine = top > kMaxBucketBits ? top - kMaxBucketBits : 0;
  const unsigned coarse = top > kBucketBits ? top - kBucketBits : 0;
  const unsigned fit = kBucketKeyBits > tag_bits_ ? kBucketKeyBits - tag_bits_ : 0;
  const auto few = static_cast<unsigned>(std::bit_width(batch / kBucketMessages));
  const unsigned shift = std::max({fine, std::min(coarse, fit), top > few ? top - few : 0u});
  part_.shift = shift;
  part_.buckets = (static_cast<std::size_t>(n_ - 1) >> shift) + 1;
  part_.cursors.resize((shards + 1) * part_.buckets);
  // Shard k's chunk starts at k sent / W, snapped forward past the sender
  // run straddling it, so each sender's run belongs to exactly one shard.
  const Message* msgs = outbox.data();
  compact_[0].begin = 0;
  for (std::size_t k = 1; k < shards; ++k) {
    std::size_t at = std::max(k * sent / shards, compact_[k - 1].begin);
    if (at > 0 && at < sent) {
      const NodeId from = msgs[at - 1].from;
      at = static_cast<std::size_t>(
          std::partition_point(msgs + at, msgs + sent,
                               [from](const Message& m) { return m.from == from; }) -
          msgs);
    }
    compact_[k].begin = at;
    compact_[k - 1].end = at;
  }
  compact_[shards - 1].end = sent;
  // Room for every list a worker (shard k >= 1) fills, reserved here: a
  // list grown on its worker would strand the outgrown buffers in that
  // thread's malloc arena.
  for (std::size_t k = 0; k < shards; ++k) {
    CompactShard& shard = compact_[k];
    shard.dropped_sum = shard.lost_crash = shard.lost_fault = shard.lost_dead = shard.delayed = 0;
    if (k != 0) {
      shard.sleepers.reserve(static_cast<std::size_t>(sleeping_count_));
      if (delays_armed_) shard.parked.reserve(shard.end - shard.begin);
    }
  }
  run_shards([](Engine& engine, std::size_t k) { engine.compact_shard(k); });

  // Fold the shards' accumulators in shard order. Trace accounting: the
  // sent-batch header sum was accumulated at send time (fields in
  // registers, no extra DRAM pass) and the shards subtract the rare
  // dropped and delayed messages, so the delivered-header digest never
  // touches a surviving message again.
  std::size_t kept_total = 0;
  std::uint64_t dropped_sum = 0;
  for (std::size_t k = 0; k < shards; ++k) {
    CompactShard& shard = compact_[k];
    kept_total += shard.kept - shard.begin;
    metrics_.messages_total += shard.messages;
    metrics_.bits_total += shard.bits;
    metrics_.messages_honest += shard.honest_messages;
    metrics_.bits_honest += shard.honest_bits;
    if (traced) {
      dropped_sum += shard.dropped_sum;
      digest_.lost_crash += shard.lost_crash;
      digest_.lost_fault += shard.lost_fault;
      digest_.lost_dead += shard.lost_dead;
      digest_.delayed += shard.delayed;
    }
    // Parked in shard order = the serial send order, so every bucket's
    // message order and arena contents match the serial engine's.
    for (const auto& [round, m] : shard.parked) park_delayed(m, round);
    shard.parked.clear();
  }

  // Inject the messages whose due round is now as the last chunk: they join
  // the batch after this round's own survivors (the stable sort below
  // groups them by (receiver, tag), late arrivals after on-time ones within
  // a group) and become readable next round. A receiver that crashed or
  // halted while the message was in transit never sees it (lost_dead).
  // The injected chunk starts after the last shard's survivors.
  outbox.resize(compact_[shards - 1].kept);
  CompactShard& injected = compact_[shards];
  injected.begin = outbox.size();
  injected.max_tag = 0;
  std::uint32_t* hist = part_.cursors.data() + shards * part_.buckets;
  std::fill_n(hist, part_.buckets, 0u);
  std::uint64_t injected_sum = 0;
  if (due != pending_delayed_.end()) {
    for (const Message& m : due->second.msgs) {
      --pending_delayed_count_;
      const auto to = static_cast<std::uint32_t>(m.to);
      if (dead_[to] != 0) {
        if (traced) ++digest_.lost_dead;
        continue;
      }
      if (traced) injected_sum += digest_header(m);
      ++hist[to >> shift];
      injected.max_tag = std::max(injected.max_tag, m.tag);
      outbox.push_back(m);
    }
    // The bucket's arena backs the injected bodies until next round's step
    // has read them; recycled one round from now (see the top).
    draining_delayed_ = std::move(due->second);
    pending_delayed_.erase(due);
    rearm_delays();  // a nonempty queue keeps the delay plane engaged
  }
  injected.kept = outbox.size();
  kept_total += injected.kept - injected.begin;
  if (traced) {
    // Delivered-header digest = (sum of sent headers) - (sum of dropped and
    // parked headers) + (sum of injected due headers): equal to
    // digest_messages over the delivered batch.
    std::uint64_t sent_sum = 0;
    for (const auto& sink : sinks_) sent_sum += sink.header_sum;
    digest_.sent = sent;
    digest_.payload_hash =
        digest_messages_final(sent_sum - dropped_sum + injected_sum, kept_total);
  }
  metrics_.peak_round_messages =
      std::max(metrics_.peak_round_messages, static_cast<std::int64_t>(kept_total));

  // Stable sort into delivery normal form: group by (receiver, tag). The
  // arena is appended in ascending sender order and both levels of the
  // sort are stable, so each (receiver, tag) run stays sorted by sender
  // with per-sender send order preserved. The sort's shards wake the
  // receivers of their buckets; their parked ones go onto the sleep heap.
  const std::uint64_t sort_start = tele_ != nullptr ? obs::now_ns() : 0;
  sort_batch();
  const Round next = round_ + 1;
  for (std::size_t k = 0; k < shards; ++k) {
    for (const NodeId v : compact_[k].sleepers) sleep_heap_.emplace(next, v);
    compact_[k].sleepers.clear();
  }
  if (tele_ != nullptr) {
    tele_->compact_ns.record(sort_start - compact_start);
    tele_->sort_ns.record(obs::now_ns() - sort_start);
  }
}

Report Engine::run() {
  while (step()) {
  }
  return finish();
}

bool Engine::step() {
  if (finished_) return false;
  if (round_ == 0) {
    for (NodeId v = 0; v < n_; ++v) {
      LFT_ASSERT_MSG(processes_[static_cast<std::size_t>(v)] != nullptr,
                     "every node needs a Process before the first round");
    }
  }
  if (round_ >= config_.max_rounds) {
    finished_ = true;
    return false;
  }
  // 0a. Fault plane, pre-round phase: omission/partition/link windows and
  //     Byzantine takeovers that affect this round's sends.
  const std::uint64_t round_start = tele_ != nullptr ? obs::now_ns() : 0;
  if (!fault_plane_.empty()) run_fault_phase(/*pre_round=*/true);
  const std::uint64_t wake_start = tele_ != nullptr ? obs::now_ns() : 0;

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
  //    worker pool — bit-identical either way), filling the outbox with the
  //    round's sends in ascending sender order.
  const std::uint64_t step_start = tele_ != nullptr ? obs::now_ns() : 0;
  step_active();
  const std::uint64_t post_step_start = tele_ != nullptr ? obs::now_ns() : 0;
  if (tele_ != nullptr) {
    tele_->fault_pre_round_ns.record(wake_start - round_start);
    tele_->wake_ns.record(step_start - wake_start);
    tele_->step_ns.record(post_step_start - step_start);
    tele_->round_active.record(active_.size());
  }

  // 2. Fault plane, post-step phase: the adaptive adversary inspects this
  //    round's pending sends and node states (crashes classically land
  //    here).
  if (!fault_plane_.empty()) run_fault_phase(/*pre_round=*/false);
  if (tele_ != nullptr) tele_->post_step_ns.record(obs::now_ns() - post_step_start);

  // 3. Filter, account, and sort this round's batch for delivery.
  //    Telemetry brackets the batch with message conservation: everything
  //    entering the round (in-flight delayed + fresh sends) leaves it as
  //    delivered, still-delayed, or lost (crash/fault/dead).
  const std::int64_t tele_pending_before = pending_delayed_count_;
  const std::uint64_t tele_delayed_before = total_delayed_;
  const std::uint64_t tele_sent = tele_ != nullptr ? sinks_[0].msgs.size() : 0;
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
  const std::uint64_t settle_start = tele_ != nullptr ? obs::now_ns() : 0;
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
    if (dead_[vi] != 0) return true;
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
  completed_ = active_.empty() && sleeping_count_ == 0 && pending_delayed_count_ == 0;
  if (tele_ != nullptr) tele_->settle_ns.record(obs::now_ns() - settle_start);
  ++round_;  // the finishing round still counts
  finished_ = completed_ || round_ >= config_.max_rounds;
  return !finished_;
}

Report Engine::finish() const {
  Report report;
  report.metrics = metrics_;
  for (const auto& s : status_) {
    report.metrics.max_sends_per_node = std::max(report.metrics.max_sends_per_node, s.sends);
  }
  report.metrics.rounds = round_;
  report.rounds = round_;
  report.completed = completed_;
  report.nodes = status_;
  return report;
}

}  // namespace lft::sim
