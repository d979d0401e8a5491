#include "core/io.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace lft::core {

void StageDriver::add(Stage& stage) {
  LFT_ASSERT(count_ < kMaxStages);
  stages_[count_++] = &stage;
  total_ += stage.duration();
}

Round StageDriver::quiescent_until(Round round) const {
  if (current_ >= count_) return round + 1;
  const Round wake =
      stage_start_ + stages_[current_]->quiescent_until(round - stage_start_);
  return std::min(wake, total_duration() - 1);
}

bool StageDriver::drive(Round round, std::span<const sim::Message> inbox, ProtocolIo& io) {
  while (current_ < count_ && round - stage_start_ >= stages_[current_]->duration()) {
    stage_start_ += stages_[current_]->duration();
    ++current_;
  }
  if (current_ >= count_) return true;
  stages_[current_]->on_round(round - stage_start_, inbox, io);
  return current_ + 1 == count_ &&
         round - stage_start_ + 1 >= stages_[current_]->duration();
}

}  // namespace lft::core
