// Pooled payload storage for the zero-copy message plane. Message bodies
// live in a PayloadArena — a chunked bump allocator with stable addresses —
// and messages carry only a (pointer, length) view, which keeps sim::Message
// trivially copyable and makes the delivery sweep move 40-byte PODs without
// touching payload bytes. Arenas are round-scoped and double-buffered by the
// engine: the arena filled in round r backs the inboxes read in round r+1
// and is reset (chunks retained) in round r+2, so the steady state performs
// no allocation.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

namespace lft::sim {

/// Non-owning read-only view of a message payload. Producers hand one to
/// Context::send (which copies the bytes into the engine's arena); consumers
/// get one from Message::body(), valid for the round the message is
/// delivered in.
using PayloadView = std::span<const std::byte>;

/// Chunked bump allocator with stable addresses: allocations never move, and
/// clear() resets the cursors while keeping every chunk, so a reused arena
/// allocates nothing in steady state.
class PayloadArena {
 public:
  /// First-chunk size; subsequent chunks double (stable addresses make
  /// growth-by-new-chunk free) so a body-heavy round reaches multi-MiB
  /// chunks in a few allocations instead of thousands of 64 KiB ones.
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
  /// Chunk-size growth cap: big enough that the chunk count stays O(log) in
  /// the round's body volume, small enough to not strand memory.
  static constexpr std::size_t kMaxChunkBytes = std::size_t{1} << 23;

  /// Returns `len` stable writable bytes (nullptr for len == 0).
  std::byte* alloc(std::size_t len) {
    if (len == 0) return nullptr;
    while (current_ < chunks_.size() && used_ + len > chunks_[current_].capacity) {
      ++current_;  // payload larger than the remainder: move on (rare)
      used_ = 0;
    }
    if (current_ >= chunks_.size()) {
      std::size_t capacity = next_chunk_bytes_;
      if (next_chunk_bytes_ < kMaxChunkBytes) next_chunk_bytes_ *= 2;
      if (len > capacity) capacity = len;
      chunks_.push_back(Chunk{std::make_unique<std::byte[]>(capacity), capacity});
      used_ = 0;
    }
    std::byte* p = chunks_[current_].data.get() + used_;
    used_ += len;
    total_ += len;
    return p;
  }

  /// Copies `bytes` into the arena and returns the stable view.
  PayloadView store(PayloadView bytes) {
    if (bytes.empty()) return {};
    std::byte* p = alloc(bytes.size());
    std::memcpy(p, bytes.data(), bytes.size());
    return PayloadView(p, bytes.size());
  }

  /// Resets the cursors; chunks (and every outstanding pointer's storage)
  /// stay allocated, so this must only run once the previous round's views
  /// have been consumed.
  void clear() noexcept {
    current_ = 0;
    used_ = 0;
    total_ = 0;
  }

  [[nodiscard]] std::size_t bytes_stored() const noexcept { return total_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity;
  };
  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;  // chunk the cursor is in
  std::size_t used_ = 0;     // bytes used in chunks_[current_]
  std::size_t total_ = 0;    // bytes stored since the last clear()
  std::size_t next_chunk_bytes_ = kChunkBytes;  // doubling, capped
};

}  // namespace lft::sim
