// The delivery sweep's flat-array kernels (see common/simd.hpp).
#include "common/simd.hpp"

#include <cstring>

namespace lft::simd {

void histogram_u32(const std::uint32_t* keys, std::size_t n, std::uint32_t* counts) {
  for (std::size_t i = 0; i < n; ++i) ++counts[keys[i]];
}

std::uint32_t exclusive_scan_u32(std::uint32_t* a, std::size_t n) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t count = a[i];
    a[i] = sum;
    sum += count;
  }
  return sum;
}

void scatter_records40(const std::byte* src, std::size_t n, const std::uint32_t* keys,
                       std::uint32_t* next_slot, std::byte* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = next_slot[keys[i]]++;
    std::memcpy(dst + std::size_t{40} * slot, src + std::size_t{40} * i, 40);
  }
}

std::uint32_t build_keys40(const std::byte* records, std::size_t n, unsigned tag_bits,
                           std::uint32_t* keys) {
  std::uint32_t max_tag = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // One 8-byte load covers {u32 to @4, u32 tag @8}.
    std::uint64_t to_tag;
    std::memcpy(&to_tag, records + std::size_t{40} * i + 4, 8);
    const auto to = static_cast<std::uint32_t>(to_tag);
    const auto tag = static_cast<std::uint32_t>(to_tag >> 32);
    if (tag > max_tag) max_tag = tag;
    keys[i] = (to << tag_bits) | tag;
  }
  return max_tag;
}

}  // namespace lft::simd
