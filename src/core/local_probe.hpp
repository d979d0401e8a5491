// Local probing (Section 2, Proposition 1): gamma rounds in which a node
// sends to all overlay neighbors and pauses permanently the first time it
// receives fewer than delta probe messages in a round. Surviving an instance
// certifies membership in a (gamma, delta)-dense neighborhood.
//
// Engine normal form: a probe sent in round k is received in round k+1, so
// one instance occupies gamma+1 engine rounds — sends in rounds 0..gamma-1,
// receive checks in rounds 1..gamma. Round counts differ from the paper's
// same-round-delivery presentation by exactly one round per instance.
#pragma once

#include "common/assert.hpp"
#include "common/types.hpp"

namespace lft::core {

class LocalProbe {
 public:
  LocalProbe(int gamma, int delta) : gamma_(gamma), delta_(delta) {
    LFT_ASSERT(gamma >= 1 && delta >= 0);
  }

  /// Total engine rounds an instance occupies.
  [[nodiscard]] Round duration() const noexcept { return gamma_ + 1; }

  /// Processes one probing round; `received` is the number of probe messages
  /// in this round's inbox. Returns true iff the node should send probes to
  /// all neighbors this round.
  bool step(int received) {
    LFT_ASSERT_MSG(round_ <= gamma_, "probe instance already finished");
    if (round_ >= 1 && received < delta_) paused_ = true;
    const bool send_now = !paused_ && round_ < gamma_;
    ++round_;
    return send_now;
  }

  [[nodiscard]] bool finished() const noexcept { return round_ > gamma_; }
  [[nodiscard]] bool survived() const noexcept { return finished() && !paused_; }
  [[nodiscard]] bool paused() const noexcept { return paused_; }

 private:
  int gamma_;
  int delta_;
  int round_ = 0;
  bool paused_ = false;
};

}  // namespace lft::core
