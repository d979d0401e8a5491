// A dynamic fixed-size bitset used for extant sets (gossip/checkpointing) and
// vectorized consensus. std::vector<bool> lacks word-level OR and popcount;
// this type provides them and a compact serialization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace lft {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t size, bool value = false);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    LFT_ASSERT(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i, bool value = true) noexcept {
    LFT_ASSERT(i < size_);
    const std::uint64_t mask = 1ULL << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  void reset() noexcept;
  void set_all() noexcept;

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  /// this |= other. Sizes must match. Returns true iff any bit changed.
  bool or_assign(const DynamicBitset& other) noexcept;

  /// Bits set in this but not in other (set difference), as a new bitset.
  [[nodiscard]] DynamicBitset minus(const DynamicBitset& other) const;

  /// True iff every bit set in this is also set in other.
  [[nodiscard]] bool is_subset_of(const DynamicBitset& other) const noexcept;

  /// Index of the first set bit, or size() if none.
  [[nodiscard]] std::size_t find_first() const noexcept;

  /// Index of the first set bit strictly after i, or size() if none.
  [[nodiscard]] std::size_t find_next(std::size_t i) const noexcept;

  /// Calls fn(i) for every set bit, in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Indices of all set bits.
  [[nodiscard]] std::vector<std::size_t> to_indices() const;

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) noexcept {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// Raw word access for serialization.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept { return words_; }
  std::vector<std::uint64_t>& mutable_words() noexcept { return words_; }

 private:
  void clear_padding() noexcept;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace lft
