#include "singleport/adapter.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace lft::singleport {

void SinglePortStageProcess::QueueIo::send(NodeId to, std::uint32_t tag, std::uint64_t value,
                                           std::uint64_t bits, sim::PayloadView body) {
  auto [it, inserted] = queue_->try_emplace(to);
  LFT_ASSERT_MSG(inserted, "stage queued two messages on one link in one round");
  const std::size_t offset = bytes_->size();
  bytes_->insert(bytes_->end(), body.begin(), body.end());
  it->second = QueuedSend{tag, value, bits, offset, body.size()};
}

void SinglePortStageProcess::advance_mp_round() {
  ++stage_round_;
  slot_ = 0;
  queued_.clear();
  while (stage_index_ < stages_.size() &&
         stage_round_ >= stages_[stage_index_]->duration()) {
    stage_round_ = 0;
    ++stage_index_;
  }
  if (stage_index_ >= stages_.size()) done_ = true;
}

SpAction SinglePortStageProcess::on_round(SpContext& ctx,
                                          const std::optional<sim::Message>& received) {
  if (received.has_value()) {
    // The port-side payload scratch is only valid for this call: pool the
    // bytes and record the offset (acc_bytes_ may still reallocate while the
    // block accumulates, so pointers are rebound at slot 0).
    acc_offsets_.push_back(acc_bytes_.size());
    acc_bytes_.insert(acc_bytes_.end(), received->body().begin(), received->body().end());
    inbox_accumulator_.push_back(*received);
  }
  if (done_) {
    ctx.halt();
    return {};
  }

  core::Stage& stage = *stages_[stage_index_];

  if (slot_ == 0) {
    // Drive the wrapped stage with everything polled since its last round,
    // in the multi-port engine's delivery normal form: grouped by tag,
    // sender-sorted within each tag group.
    for (std::size_t i = 0; i < inbox_accumulator_.size(); ++i) {
      inbox_accumulator_[i].set_body(
          sim::PayloadView(acc_bytes_.data() + acc_offsets_[i],
                           inbox_accumulator_[i].body_len));
    }
    std::stable_sort(inbox_accumulator_.begin(), inbox_accumulator_.end(),
                     [](const sim::Message& a, const sim::Message& b) {
                       return a.tag != b.tag ? a.tag < b.tag : a.from < b.from;
                     });
    queued_bytes_.clear();
    QueueIo io(queued_, queued_bytes_, ctx);
    stage.on_round(stage_round_, inbox_accumulator_, io);
    inbox_accumulator_.clear();
    acc_offsets_.clear();
    acc_bytes_.clear();
    budget_ = stage.link_budget(stage_round_);
    plan_ = stage.link_plan(stage_round_);
    LFT_ASSERT(static_cast<int>(plan_.out.size()) <= std::max(1, budget_.max_out));
    LFT_ASSERT(static_cast<int>(plan_.in.size()) <= std::max(1, budget_.max_in));
  }

  SpAction action;
  const Round out_slots = budget_.max_out;
  const Round in_slots = budget_.max_in;
  if (slot_ < out_slots) {
    if (slot_ < static_cast<Round>(plan_.out.size())) {
      const NodeId target = plan_.out[static_cast<std::size_t>(slot_)];
      auto it = queued_.find(target);
      if (it != queued_.end()) {
        // The view into queued_bytes_ stays valid until the next block's
        // slot 0 — past the PortProcess send this round.
        action.send = SpSend{
            target, it->second.tag, it->second.value, it->second.bits,
            sim::PayloadView(queued_bytes_.data() + it->second.body_offset,
                             it->second.body_len)};
        queued_.erase(it);
      }
    }
  } else if (slot_ < out_slots + in_slots) {
    const Round in_index = slot_ - out_slots;
    if (in_index < static_cast<Round>(plan_.in.size())) {
      action.poll = plan_.in[static_cast<std::size_t>(in_index)];
    }
  }

  ++slot_;
  const Round block = std::max<Round>(1, out_slots + in_slots);
  if (slot_ >= block) {
    LFT_ASSERT_MSG(queued_.empty(), "stage sent outside its declared link plan");
    advance_mp_round();  // once done_, the next round halts
  }
  return action;
}

}  // namespace lft::singleport
