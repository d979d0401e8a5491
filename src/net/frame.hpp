// Length-prefixed framing over stream sockets: every frame is a u32
// little-endian payload length followed by the payload bytes. The service
// server (nonblocking sessions) and its clients read into a FrameParser and
// drain whatever complete frames have arrived.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/socket.hpp"

namespace lft::net {

/// Frames larger than this are treated as protocol corruption (a desynced
/// or malicious peer), not as a request for a 4 GiB allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 26;  // 64 MiB

/// Appends [u32 len][payload] to `out`.
void append_frame(std::vector<std::byte>& out, std::span<const std::byte> payload);

/// Incremental frame parser: writable()/commit() exposes the buffer tail
/// so the socket read lands directly in the parser, and next_view() hands
/// back each complete payload as a view into the buffer.
class FrameParser {
 public:
  /// Direct-fill: returns a writable tail span of at least `min_bytes`
  /// (compacting/growing as needed). Read from the socket into it, then
  /// commit() however many bytes actually arrived. Invalidates next_view()
  /// spans.
  [[nodiscard]] std::span<std::byte> writable(std::size_t min_bytes);
  void commit(std::size_t n);

  /// Views the next complete frame's payload and consumes it; false when
  /// no complete frame is buffered. `payload` views the internal buffer and
  /// stays valid until the next writable() call.
  [[nodiscard]] bool next_view(std::span<const std::byte>& payload);

  /// True when the buffered length prefix exceeds kMaxFrameBytes: the
  /// stream is desynced and the connection should be dropped.
  [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }

  [[nodiscard]] std::size_t buffered() const noexcept { return end_ - pos_; }

 private:
  void compact_or_grow(std::size_t tail_needed);
  [[nodiscard]] bool frame_ready(std::uint32_t& len);

  // Manual size/capacity management: the vector's size would have to be
  // extended (zero-filling the tail) before every direct socket read, so
  // the valid region is tracked explicitly instead.
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
  std::size_t end_ = 0;  // valid bytes: buf_[pos_, end_)
  bool corrupt_ = false;
};

}  // namespace lft::net
