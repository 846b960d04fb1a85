#include "util/bitmap.h"

#include <bit>

namespace subdex {

Bitmap::Bitmap(size_t num_bits, bool value)
    : num_bits_(num_bits),
      words_((num_bits + 63) / 64, value ? ~uint64_t{0} : uint64_t{0}) {
  if (value) {
    // Clear padding bits past the end so Count() stays exact.
    size_t tail = num_bits_ % 64;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << tail) - 1;
    }
  }
}

void Bitmap::Set(size_t i) {
  SUBDEX_CHECK(i < num_bits_);
  words_[i / 64] |= uint64_t{1} << (i % 64);
}

void Bitmap::Clear(size_t i) {
  SUBDEX_CHECK(i < num_bits_);
  words_[i / 64] &= ~(uint64_t{1} << (i % 64));
}

bool Bitmap::Test(size_t i) const {
  SUBDEX_CHECK(i < num_bits_);
  return (words_[i / 64] >> (i % 64)) & 1u;
}

void Bitmap::And(const Bitmap& other) {
  SUBDEX_CHECK(num_bits_ == other.num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
}

void Bitmap::Or(const Bitmap& other) {
  SUBDEX_CHECK(num_bits_ == other.num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
}

size_t Bitmap::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  return n;
}

std::vector<uint32_t> Bitmap::ToIndices() const {
  std::vector<uint32_t> out;
  out.reserve(Count());
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t bits = words_[w];
    while (bits != 0) {
      int b = std::countr_zero(bits);
      out.push_back(static_cast<uint32_t>(w * 64 + static_cast<size_t>(b)));
      bits &= bits - 1;
    }
  }
  return out;
}

void Bitmap::SetAll() {
  for (uint64_t& w : words_) w = ~uint64_t{0};
  size_t tail = num_bits_ % 64;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

}  // namespace subdex
