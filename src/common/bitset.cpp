#include "common/bitset.hpp"

#include <bit>

namespace lft {

DynamicBitset::DynamicBitset(std::size_t size, bool value)
    : size_(size), words_((size + 63) / 64, value ? ~0ULL : 0ULL) {
  clear_padding();
}

void DynamicBitset::clear_padding() noexcept {
  const std::size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1;
  }
}

void DynamicBitset::reset() noexcept {
  for (auto& w : words_) w = 0;
}

void DynamicBitset::set_all() noexcept {
  for (auto& w : words_) w = ~0ULL;
  clear_padding();
}

std::size_t DynamicBitset::count() const noexcept {
  std::size_t c = 0;
  for (std::uint64_t w : words_) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

bool DynamicBitset::or_assign(const DynamicBitset& other) noexcept {
  LFT_ASSERT(size_ == other.size_);
  bool changed = false;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t merged = words_[i] | other.words_[i];
    changed |= (merged != words_[i]);
    words_[i] = merged;
  }
  return changed;
}

DynamicBitset DynamicBitset::minus(const DynamicBitset& other) const {
  LFT_ASSERT(size_ == other.size_);
  DynamicBitset out(size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = words_[i] & ~other.words_[i];
  }
  return out;
}

bool DynamicBitset::is_subset_of(const DynamicBitset& other) const noexcept {
  LFT_ASSERT(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

std::size_t DynamicBitset::find_first() const noexcept {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(words_[w]));
    }
  }
  return size_;
}

std::size_t DynamicBitset::find_next(std::size_t i) const noexcept {
  ++i;
  if (i >= size_) return size_;
  std::size_t w = i >> 6;
  std::uint64_t bits = words_[w] & (~0ULL << (i & 63));
  while (true) {
    if (bits != 0) return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    if (++w == words_.size()) return size_;
    bits = words_[w];
  }
}

std::vector<std::size_t> DynamicBitset::to_indices() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each([&](std::size_t i) { out.push_back(i); });
  return out;
}

}  // namespace lft
