#include "core/io.hpp"

#include <algorithm>

namespace lft::core {

Round StageDriver::total_duration() const {
  if (total_cached_ < 0) {
    Round total = 0;
    for (const auto& s : stages_) total += s->duration();
    total_cached_ = total;
  }
  return total_cached_;
}

Round StageDriver::quiescent_until(Round round) const {
  if (current_ >= stages_.size()) return round + 1;
  const Round wake =
      stage_start_ + stages_[current_]->quiescent_until(round - stage_start_);
  return std::min(wake, total_duration() - 1);
}

bool StageDriver::drive(Round round, std::span<const sim::Message> inbox, ProtocolIo& io) {
  while (current_ < stages_.size() && round - stage_start_ >= stages_[current_]->duration()) {
    stage_start_ += stages_[current_]->duration();
    ++current_;
  }
  if (current_ >= stages_.size()) return true;
  stages_[current_]->on_round(round - stage_start_, inbox, io);
  return current_ + 1 == stages_.size() &&
         round - stage_start_ + 1 >= stages_[current_]->duration();
}

void StageProcess::on_round(sim::Context& ctx, const sim::Inbox& inbox) {
  ContextIo io(ctx);
  const Round round = ctx.round();
  if (driver_.drive(round, inbox.all(), io)) {
    io.halt();
    return;
  }
  const Round wake = driver_.quiescent_until(round);
  if (wake > round + 1) io.sleep_until(wake);
}

}  // namespace lft::core
