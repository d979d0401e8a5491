// The flat-array kernel behind the engine's delivery sort: the stable
// 40-byte record scatter of its per-bucket counting sort (sim/engine.cpp).
// It has one portable implementation: docs/architecture.md ("The message
// plane") records the measurement that showed vector variants did not pay
// for themselves.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lft::simd {

/// The message plane's single code path. Kept as a name so tools that stamp
/// their output with the executing path (perfbench's env line) keep printing
/// "scalar".
enum class Tier : std::uint8_t { kScalar };

[[nodiscard]] constexpr Tier default_tier() noexcept { return Tier::kScalar; }
[[nodiscard]] constexpr const char* tier_name(Tier) noexcept { return "scalar"; }

/// Stable counting-sort scatter of 40-byte records laid out like
/// sim::Message (sim/ static_asserts its size; common/ keeps only the
/// byte-level shape, so the kernel stays free of a sim dependency): record
/// i moves to slot next_slot[keys[i]]++ of dst (slots are record indices,
/// dst byte offset = 40 * slot). `next_slot` must hold the exclusive prefix
/// sums of the key histogram; on return it holds the end offset of each
/// key's run. src and dst must not overlap.
void scatter_records40(const std::byte* src, std::size_t n, const std::uint32_t* keys,
                       std::uint32_t* next_slot, std::byte* dst);

}  // namespace lft::simd
