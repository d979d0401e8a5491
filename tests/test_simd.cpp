// Tests for the delivery-sweep kernels (common/simd.hpp). Each kernel is
// held to a scalar reference built here from the standard library (count,
// exclusive_scan, stable_sort), at block-boundary sizes, with heavy key
// duplication, and on record bases off 8-byte alignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "common/simd.hpp"

namespace lft {
namespace {

const std::size_t kSizes[] = {0, 1, 3, 4, 5, 7,  8,  9,  15, 16, 17,
                              31, 32, 33, 63, 64, 65, 100, 129, 1000};

constexpr std::size_t kRecordBytes = 40;

// Deterministic records with bounded (to, tag) at byte offsets 4 / 8 and
// random junk elsewhere, laid out like sim::Message. `misalign` shifts the
// base pointer off 8-byte alignment.
struct RecordBuf {
  std::vector<std::byte> storage;
  std::byte* records = nullptr;

  RecordBuf(std::size_t n, std::uint32_t to_limit, std::uint32_t tag_limit,
            std::size_t misalign, std::uint64_t seed) {
    storage.resize(n * kRecordBytes + misalign + 8);
    records = storage.data() + misalign;
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      std::byte* r = records + i * kRecordBytes;
      for (std::size_t b = 0; b < kRecordBytes; b += 8) {
        const std::uint64_t word = rng();
        std::memcpy(r + b, &word, 8);
      }
      const std::uint32_t to = static_cast<std::uint32_t>(rng()) % to_limit;
      const std::uint32_t tag = static_cast<std::uint32_t>(rng()) % tag_limit;
      std::memcpy(r + 4, &to, 4);
      std::memcpy(r + 8, &tag, 4);
    }
  }

  [[nodiscard]] std::uint32_t field(std::size_t i, std::size_t offset) const {
    std::uint32_t v;
    std::memcpy(&v, records + i * kRecordBytes + offset, 4);
    return v;
  }
};

std::vector<std::uint32_t> reference_histogram(const std::vector<std::uint32_t>& keys,
                                               std::size_t domain) {
  std::vector<std::uint32_t> counts(domain);
  for (std::size_t k = 0; k < domain; ++k) {
    counts[k] = static_cast<std::uint32_t>(
        std::count(keys.begin(), keys.end(), static_cast<std::uint32_t>(k)));
  }
  return counts;
}

TEST(SimdKernels, HistogramMatchesScalar) {
  for (const std::size_t n : kSizes) {
    std::mt19937_64 rng(n * 1009 + 1);
    const std::uint32_t domain = 37;
    std::vector<std::uint32_t> keys(n);
    for (auto& k : keys) k = static_cast<std::uint32_t>(rng()) % domain;
    std::vector<std::uint32_t> got(domain, 0);
    simd::histogram_u32(keys.data(), n, got.data());
    EXPECT_EQ(reference_histogram(keys, domain), got) << "n=" << n;
  }
}

TEST(SimdKernels, HistogramHeavyDuplicates) {
  for (const std::size_t n : {16u, 17u, 48u, 1000u}) {
    std::vector<std::uint32_t> keys(n, 5);
    for (std::size_t i = 0; i < n; i += 3) keys[i] = 11;
    // The kernel accumulates into counts it is handed; start from nonzero.
    std::vector<std::uint32_t> got(16, 2);
    simd::histogram_u32(keys.data(), n, got.data());
    auto want = reference_histogram(keys, 16);
    for (auto& c : want) c += 2;
    EXPECT_EQ(want, got) << "n=" << n;
    EXPECT_EQ(got[11], 2 + (n + 2) / 3) << "n=" << n;
  }
}

TEST(SimdKernels, ExclusiveScanMatchesScalar) {
  for (const std::size_t n : kSizes) {
    std::mt19937_64 rng(n * 31 + 7);
    std::vector<std::uint32_t> values(n);
    // Include large values so the u32 total wraps on bigger sizes.
    for (auto& v : values) v = static_cast<std::uint32_t>(rng());
    std::vector<std::uint32_t> want(n);
    std::exclusive_scan(values.begin(), values.end(), want.begin(), std::uint32_t{0});
    const std::uint32_t want_total =
        std::accumulate(values.begin(), values.end(), std::uint32_t{0});
    std::vector<std::uint32_t> got = values;
    const std::uint32_t got_total = simd::exclusive_scan_u32(got.data(), n);
    EXPECT_EQ(want, got) << "n=" << n;
    EXPECT_EQ(want_total, got_total) << "n=" << n;
  }
}

TEST(SimdKernels, BuildKeysMatchesScalarIncludingUnalignedBase) {
  for (const std::size_t n : kSizes) {
    for (const std::size_t misalign : {0u, 1u, 5u}) {
      const RecordBuf buf(n, /*to_limit=*/53, /*tag_limit=*/13, misalign,
                          /*seed=*/n * 7919 + misalign);
      const unsigned tag_bits = 4;
      std::vector<std::uint32_t> want(n + 1, 0xDEADBEEF);
      std::uint32_t want_max = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t to = buf.field(i, 4);
        const std::uint32_t tag = buf.field(i, 8);
        want[i] = (to << tag_bits) | tag;
        want_max = std::max(want_max, tag);
      }
      std::vector<std::uint32_t> got(n + 1, 0xDEADBEEF);
      const std::uint32_t got_max = simd::build_keys40(buf.records, n, tag_bits, got.data());
      EXPECT_EQ(want, got) << "n=" << n << " mis=" << misalign;
      EXPECT_EQ(want_max, got_max) << "n=" << n << " mis=" << misalign;
    }
  }
}

TEST(SimdKernels, ScatterMatchesScalarAndIsStable) {
  for (const std::size_t n : kSizes) {
    const RecordBuf buf(n, /*to_limit=*/7, /*tag_limit=*/3, /*misalign=*/1,
                        /*seed=*/n * 104729 + 3);
    const unsigned tag_bits = 2;
    const std::size_t domain = 7u << tag_bits;
    std::vector<std::uint32_t> keys(n);
    simd::build_keys40(buf.records, n, tag_bits, keys.data());

    // Reference: record indices stably sorted by key.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
    std::vector<std::byte> want(n * kRecordBytes);
    for (std::size_t slot = 0; slot < n; ++slot) {
      std::memcpy(want.data() + slot * kRecordBytes, buf.records + order[slot] * kRecordBytes,
                  kRecordBytes);
    }
    const auto counts = reference_histogram(keys, domain);
    std::vector<std::uint32_t> want_ends(domain);
    std::inclusive_scan(counts.begin(), counts.end(), want_ends.begin());

    std::vector<std::uint32_t> slots(domain);
    std::exclusive_scan(counts.begin(), counts.end(), slots.begin(), std::uint32_t{0});
    std::vector<std::byte> got(n * kRecordBytes, std::byte{0xAA});
    simd::scatter_records40(buf.records, n, keys.data(), slots.data(), got.data());
    EXPECT_EQ(want, got) << "n=" << n;
    EXPECT_EQ(want_ends, slots) << "n=" << n;
  }
}

}  // namespace
}  // namespace lft
