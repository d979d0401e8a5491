// The delivery sort's record scatter (see common/simd.hpp).
#include "common/simd.hpp"

#include <cstring>

namespace lft::simd {

void scatter_records40(const std::byte* src, std::size_t n, const std::uint32_t* keys,
                       std::uint32_t* next_slot, std::byte* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = next_slot[keys[i]]++;
    std::memcpy(dst + std::size_t{40} * slot, src + std::size_t{40} * i, 40);
  }
}

}  // namespace lft::simd
