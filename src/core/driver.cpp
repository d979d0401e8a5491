#include "core/driver.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace lft::core {

void BatchIo::send(NodeId to, std::uint32_t tag, std::uint64_t value, std::uint64_t bits,
                   sim::PayloadView body) {
  LFT_ASSERT(to >= 0);
  LFT_ASSERT(bits >= 1);
  sim::Message m;
  m.from = self_;
  m.to = to;
  m.tag = tag;
  m.value = value;
  m.bits = bits;
  if (!body.empty()) m.set_body(arena_->store(body));
  out_->push_back(m);
}

void BatchIo::decide(std::uint64_t value) {
  if (result_->decided) {
    LFT_ASSERT_MSG(result_->decision == value, "decision is irrevocable");
    return;
  }
  result_->decided = true;
  result_->decision = value;
}

void LoopbackTransport::step_round(Round round, std::span<const NodeId> active,
                                   std::span<const std::span<const sim::Message>> inboxes,
                                   std::vector<sim::Message>& outbox,
                                   std::span<StepResult> results) {
  // This round's parity arena is recycled; the other one backs `inboxes`
  // (last round's sends) and is cleared on the next call.
  sim::PayloadArena& arena = arena_[static_cast<std::size_t>(round) & 1];
  arena.clear();
  for (std::size_t i = 0; i < active.size(); ++i) {
    const NodeId v = active[i];
    BatchIo io(v, arena, outbox, results[i]);
    programs_[static_cast<std::size_t>(v)]->run_round(round, inboxes[i], io);
  }
}

RoundDriver::RoundDriver(NodeId n, Transport& transport, const RunOptions& options)
    : n_(n), transport_(&transport), options_(options) {
  LFT_ASSERT(n > 0);
  status_.resize(static_cast<std::size_t>(n));
  active_.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) active_[static_cast<std::size_t>(v)] = v;
  sleeping_.assign(static_cast<std::size_t>(n), 0);
  wake_at_.assign(static_cast<std::size_t>(n), 0);
}

void RoundDriver::wake_by(NodeId v, Round round) {
  auto& wake = wake_at_[static_cast<std::size_t>(v)];
  if (wake <= round) return;
  wake = round;
  if (sleeping_[static_cast<std::size_t>(v)] != 0) sleep_heap_.emplace(round, v);
}

void RoundDriver::deliver_batch() {
  // The engine's fault-free delivery pass: account every message (no crash
  // or fault filters here), drop the ones whose receiver already halted,
  // wake every recipient. Header/body digests are commutative sums/XORs, so
  // computing them over the collected batch here equals the engine's
  // accumulation message for message, and only messages that actually
  // carry a body pay a body digest.
  const bool traced = options_.trace != nullptr;
  std::uint64_t dropped_sum = 0;
  std::uint64_t header_sum = 0;
  if (traced) {
    digest_.sent = outbox_.size();
    for (const sim::Message& m : outbox_) {
      const std::uint64_t w = sim::digest_header(m);
      header_sum += w;
      if (m.has_body()) digest_.body_hash ^= sim::digest_body(w, m.body());
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < outbox_.size(); ++i) {
    const sim::Message& m = outbox_[i];
    LFT_ASSERT(m.to >= 0 && m.to < n_);
    metrics_.messages_total += 1;
    metrics_.bits_total += static_cast<std::int64_t>(m.bits);
    metrics_.messages_honest += 1;
    metrics_.bits_honest += static_cast<std::int64_t>(m.bits);
    status_[static_cast<std::size_t>(m.from)].sends += 1;
    const auto to = static_cast<std::size_t>(m.to);
    if (status_[to].crashed || status_[to].halted) {  // never received
      if (traced) {
        ++digest_.lost_dead;
        dropped_sum += sim::digest_header(m);
      }
      continue;
    }
    wake_by(m.to, round_ + 1);  // delivery always wakes the recipient
    if (kept != i) outbox_[kept] = m;
    ++kept;
  }
  outbox_.resize(kept);
  if (traced) {
    digest_.payload_hash = sim::digest_messages_final(header_sum - dropped_sum, kept);
  }
  metrics_.peak_round_messages =
      std::max(metrics_.peak_round_messages, static_cast<std::int64_t>(kept));

  // Delivery normal form: group by (receiver, tag). The batch arrived in
  // ascending sender order and stable_sort keeps ties in input order, so
  // each (receiver, tag) run stays sorted by sender with per-sender send
  // order preserved — the engine's radix normal form exactly.
  std::stable_sort(outbox_.begin(), outbox_.end(),
                   [](const sim::Message& a, const sim::Message& b) {
                     return a.to != b.to ? a.to < b.to : a.tag < b.tag;
                   });
  inbox_.swap(outbox_);
  outbox_.clear();
}

sim::Report RoundDriver::run() {
  while (step()) {
  }
  return finish();
}

bool RoundDriver::step() {
  if (finished_) return false;
  if (round_ >= options_.max_rounds) {
    finished_ = true;
    return false;
  }
  {
    // 0. Wake sleepers whose timer (or a message) is due; heap entries are
    //    lazily invalidated.
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

    // 1. Slice the delivered batch per active node (both ascend by id) and
    //    step everyone through the transport.
    inbox_spans_.clear();
    inbox_spans_.reserve(active_.size());
    std::size_t cursor = 0;
    for (const NodeId v : active_) {
      std::size_t lo = cursor;
      while (lo < inbox_.size() && inbox_[lo].to < v) ++lo;
      std::size_t hi = lo;
      while (hi < inbox_.size() && inbox_[hi].to == v) ++hi;
      cursor = hi;
      inbox_spans_.emplace_back(inbox_.data() + lo, hi - lo);
    }
    results_.assign(active_.size(), StepResult{});
    transport_->step_round(round_, active_, inbox_spans_, outbox_, results_);

    // 2. Apply lifecycle effects. In the engine these land during the step
    //    via Context; they are per-node and order-independent, so applying
    //    them after the batch returns is equivalent.
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const auto vi = static_cast<std::size_t>(active_[i]);
      const StepResult& r = results_[i];
      auto& s = status_[vi];
      if (r.decided) {
        if (s.decided) {
          LFT_ASSERT_MSG(s.decision == r.decision, "decision is irrevocable");
        } else {
          s.decided = true;
          s.decision = r.decision;
        }
      }
      if (r.halted) s.halted = true;
      if (r.wake_at != StepResult::kNoWake) wake_at_[vi] = r.wake_at;
      metrics_.fallback_pulls += r.fallback_pulls;
    }

    // 3. Filter, account, and sort this round's batch for delivery.
    deliver_batch();

    // 3b. Emit this round's trace digest (inbox_ now holds the delivered
    //     batch in normal form; active_ is still the set that was stepped).
    if (options_.trace != nullptr) {
      digest_.round = round_;
      digest_.delivered = inbox_.size();
      digest_.active_hash = sim::digest_nodes(active_);
      options_.trace->on_round(digest_);
      digest_ = sim::RoundDigest{};
    }

    // 4. Drop halted nodes from the active set and park sleepers; done when
    //    nobody is active or sleeping.
    std::erase_if(active_, [this](NodeId v) {
      const auto vi = static_cast<std::size_t>(v);
      if (status_[vi].crashed || status_[vi].halted) return true;
      if (wake_at_[vi] > round_ + 1) {
        sleeping_[vi] = 1;
        ++sleeping_count_;
        sleep_heap_.emplace(wake_at_[vi], v);
        return true;
      }
      return false;
    });
    if (active_.empty() && sleeping_count_ == 0) {
      completed_ = true;
      ++round_;  // this round still counts
      finished_ = true;
      return false;
    }
  }
  ++round_;
  if (round_ >= options_.max_rounds) {
    finished_ = true;
    return false;
  }
  return true;
}

sim::Report RoundDriver::finish() const {
  sim::Report report;
  sim::Metrics metrics = metrics_;
  for (const auto& s : status_) {
    metrics.max_sends_per_node = std::max(metrics.max_sends_per_node, s.sends);
  }
  metrics.rounds = round_;
  report.rounds = round_;
  report.completed = completed_;
  report.metrics = metrics;
  report.nodes = status_;
  return report;
}

void RoundDriver::reset() {
  round_ = 0;
  finished_ = false;
  completed_ = false;
  std::fill(status_.begin(), status_.end(), sim::NodeStatus{});
  active_.resize(static_cast<std::size_t>(n_));
  for (NodeId v = 0; v < n_; ++v) active_[static_cast<std::size_t>(v)] = v;
  woken_.clear();
  std::fill(sleeping_.begin(), sleeping_.end(), std::uint8_t{0});
  std::fill(wake_at_.begin(), wake_at_.end(), Round{0});
  sleeping_count_ = 0;
  while (!sleep_heap_.empty()) sleep_heap_.pop();
  inbox_.clear();
  outbox_.clear();
  inbox_spans_.clear();
  results_.clear();
  metrics_ = sim::Metrics{};
  digest_ = sim::RoundDigest{};
}

}  // namespace lft::core
