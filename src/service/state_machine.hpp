// The replicated state machine: an append-only command log with per-client
// request deduplication and a chained digest. Every replica applies the
// same committed batches in the same order, so equal digests across the
// group certify byte-identical logs — the service's linearizability anchor.
//
// The log is arena-backed: one fixed-size entry per command (ids plus the
// payload's offset and length) and one contiguous payload byte arena, so an
// apply appends bytes instead of allocating a payload vector per command.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace lft::service {

/// One client request: (client_id, request_id) identifies it for dedup,
/// `payload` is the opaque command body the service totally orders.
struct Command {
  std::uint64_t client_id = 0;
  std::uint64_t request_id = 0;
  std::vector<std::byte> payload;
};

/// A logged command, viewed in place: `payload` points into the state
/// machine's arena and stays valid until the next apply().
struct CommandView {
  std::uint64_t client_id = 0;
  std::uint64_t request_id = 0;
  std::span<const std::byte> payload;
};

/// Result of applying one command.
struct Applied {
  std::uint64_t index = 0;  ///< log index the command lives at
  bool duplicate = false;   ///< replayed request: nothing was appended
};

class StateMachine {
 public:
  /// Appends `cmd` unless (client_id, request_id) was already applied.
  /// Dedup window is one request per client — the at-most-once contract a
  /// client with one outstanding request per connection needs: a replayed
  /// request_id equal to the client's last one returns the original index;
  /// an older one is dropped as a stale duplicate.
  Applied apply(const Command& cmd);

  [[nodiscard]] std::uint64_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] CommandView entry(std::uint64_t index) const {
    const Entry& e = entries_[index];
    return CommandView{e.client_id, e.request_id,
                       std::span<const std::byte>(arena_).subspan(e.offset, e.length)};
  }
  /// Payload bytes held in the arena: the sum of every logged payload.
  [[nodiscard]] std::size_t payload_bytes() const noexcept { return arena_.size(); }

  /// Chained digest over every applied command, in order: replicas with
  /// equal digests hold byte-identical logs.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  /// The last request this client had applied (0 if none) — what kWelcome
  /// reports so a reconnecting client knows where it left off.
  [[nodiscard]] std::uint64_t last_request_of(std::uint64_t client_id) const;

 private:
  struct Entry {
    std::uint64_t client_id = 0;
    std::uint64_t request_id = 0;
    std::uint64_t offset = 0;  ///< payload start in arena_
    std::uint64_t length = 0;
  };
  struct ClientMark {
    std::uint64_t request_id = 0;
    std::uint64_t index = 0;
  };
  std::vector<Entry> entries_;
  std::vector<std::byte> arena_;
  std::unordered_map<std::uint64_t, ClientMark> latest_;
  std::uint64_t digest_ = 0x4c46545345525645ULL;  // "LFTSERVE"
};

}  // namespace lft::service
