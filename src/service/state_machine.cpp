#include "service/state_machine.hpp"

#include "common/hash.hpp"

namespace lft::service {

Applied StateMachine::apply(const Command& cmd) {
  const auto [it, fresh] = latest_.try_emplace(cmd.client_id);
  if (!fresh && cmd.request_id <= it->second.request_id) {
    // Replay of the client's last request (or older): answer with the index
    // the original occupies — do not append again.
    return Applied{it->second.index, /*duplicate=*/true};
  }
  const std::uint64_t index = entries_.size();
  digest_ = hash_combine(digest_, mix64(cmd.client_id));
  digest_ = hash_combine(digest_, mix64(cmd.request_id));
  digest_ = hash_combine(digest_, hash_bytes(cmd.payload));
  it->second = ClientMark{cmd.request_id, index};
  entries_.push_back(Entry{cmd.client_id, cmd.request_id, arena_.size(), cmd.payload.size()});
  arena_.insert(arena_.end(), cmd.payload.begin(), cmd.payload.end());
  return Applied{index, /*duplicate=*/false};
}

std::uint64_t StateMachine::last_request_of(std::uint64_t client_id) const {
  const auto it = latest_.find(client_id);
  return it == latest_.end() ? 0 : it->second.request_id;
}

}  // namespace lft::service
