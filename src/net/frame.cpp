#include "net/frame.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"

namespace lft::net {

namespace {

std::uint32_t read_len(const std::byte* p) {
  std::uint32_t len = 0;
  std::memcpy(&len, p, sizeof(len));
  return len;  // little-endian hosts only, like common/codec
}

}  // namespace

void append_frame(std::vector<std::byte>& out, std::span<const std::byte> payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const auto* p = reinterpret_cast<const std::byte*>(&len);
  out.insert(out.end(), p, p + sizeof(len));
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameParser::compact_or_grow(std::size_t tail_needed) {
  // Compact once the consumed prefix dominates, keeping fills amortized
  // linear without re-copying on every frame.
  if (pos_ > 0 && (pos_ >= end_ - pos_ || buf_.size() - end_ < tail_needed)) {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (buf_.size() - end_ < tail_needed) {
    buf_.resize(std::max(buf_.size() * 2, end_ + tail_needed));
  }
}

std::span<std::byte> FrameParser::writable(std::size_t min_bytes) {
  compact_or_grow(min_bytes);
  return {buf_.data() + end_, buf_.size() - end_};
}

void FrameParser::commit(std::size_t n) {
  end_ += n;
  LFT_ASSERT_MSG(end_ <= buf_.size(), "commit() past the writable() span");
}

bool FrameParser::frame_ready(std::uint32_t& len) {
  if (corrupt_) return false;
  const std::size_t avail = end_ - pos_;
  if (avail < sizeof(std::uint32_t)) return false;
  len = read_len(buf_.data() + pos_);
  if (len > kMaxFrameBytes) {
    corrupt_ = true;
    return false;
  }
  return avail >= sizeof(std::uint32_t) + len;
}

bool FrameParser::next_view(std::span<const std::byte>& payload) {
  std::uint32_t len = 0;
  if (!frame_ready(len)) return false;
  payload = {buf_.data() + pos_ + sizeof(std::uint32_t), len};
  pos_ += sizeof(std::uint32_t) + len;
  return true;
}

}  // namespace lft::net
