// Flat-array kernels behind the engine's delivery sweep: the key build,
// histogram, prefix scan and stable 40-byte record scatter of the fused
// counting sort (sim/engine.cpp). There is one portable implementation of
// each: docs/architecture.md ("The message plane") records the measurement
// that showed vector variants did not pay for themselves.
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

// ---- kernels ---------------------------------------------------------------
//
// The 40-byte record layout several kernels assume is sim::Message:
//   {u32 from @0, u32 to @4, u32 tag @8, u32 body_len @12,
//    u64 value @16, u64 bits @24, ptr body @32}
// sim/ static_asserts the offsets; common/ keeps only the byte-level shape
// so the kernels stay free of a sim dependency.

/// counts[keys[i]] += 1 for i in [0, n). Caller guarantees keys < the counts
/// extent.
void histogram_u32(const std::uint32_t* keys, std::size_t n, std::uint32_t* counts);

/// In-place exclusive prefix sum over a[0, n); returns the total (wrapping
/// u32 arithmetic).
std::uint32_t exclusive_scan_u32(std::uint32_t* a, std::size_t n);

/// Stable counting-sort scatter of 40-byte records: record i moves to slot
/// next_slot[keys[i]]++ of dst (slots are record indices, dst byte offset =
/// 40 * slot). `next_slot` must hold the exclusive prefix sums of the key
/// histogram; on return it holds the end offset of each key's run. src and
/// dst must not overlap.
void scatter_records40(const std::byte* src, std::size_t n, const std::uint32_t* keys,
                       std::uint32_t* next_slot, std::byte* dst);

/// Builds the delivery-sweep sort key (to << tag_bits) | tag for each 40-byte
/// record and returns the maximum tag seen (0 for n == 0). Keys are valid
/// iff the returned max tag fits tag_bits; the engine retries with wider
/// tag_bits (or falls back to a comparison sort) when it does not.
std::uint32_t build_keys40(const std::byte* records, std::size_t n, unsigned tag_bits,
                           std::uint32_t* keys);

}  // namespace lft::simd
