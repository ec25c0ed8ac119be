// The LZW string table shared by both LZW encoders (LzwCodec and the .Z
// writer): (prefix code, next byte) -> code, in one flat open-addressing
// array.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace ecomp::compress {

/// Linear probing over packed 64-bit slots (key << 32 | code, where the
/// key is prefix << 8 | byte, 24 bits for codes up to 16 bits), so a
/// probe is one load and an insert allocates nothing. The table holds
/// `max_entries` at a load of at most 1/2; the encoders size it from
/// both the code space and the input length, so a short input gets a
/// short table. Not thread-safe: one dictionary per compress call.
class LzwDict {
 public:
  static constexpr std::uint32_t kMissing = 0xffffffffu;

  explicit LzwDict(std::size_t max_entries)
      : bits_(std::bit_width(std::max<std::size_t>(2 * max_entries, 2) - 1)),
        slots_(std::size_t{1} << bits_, kEmpty) {}

  /// Code of the string `prefix` + `byte`, or kMissing.
  std::uint32_t find(std::uint32_t prefix, std::uint8_t byte) const {
    const std::uint64_t key = (std::uint64_t{prefix} << 8) | byte;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const std::uint64_t slot = slots_[i];
      if (slot == kEmpty) return kMissing;
      if ((slot >> 32) == key) return static_cast<std::uint32_t>(slot);
    }
  }

  /// Add a string that find() just reported missing.
  void insert(std::uint32_t prefix, std::uint8_t byte, std::uint32_t code) {
    const std::uint64_t key = (std::uint64_t{prefix} << 8) | byte;
    std::size_t i = home(key);
    while (slots_[i] != kEmpty) i = (i + 1) & mask();
    slots_[i] = (key << 32) | code;
  }

  /// Forget every string (the encoders' CLEAR).
  void clear() { std::fill(slots_.begin(), slots_.end(), kEmpty); }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(std::uint64_t key) const {
    // Fibonacci hashing: the top bits of the product mix every key bit.
    return static_cast<std::uint32_t>(key * 0x9e3779b1u) >> (32 - bits_);
  }

  int bits_;
  std::vector<std::uint64_t> slots_;
};

}  // namespace ecomp::compress
