#pragma once

// Order-sensitive 64-bit FNV-1a accumulator, used for job *result
// digests*: every execution mode and the in-process reference executor
// fold their canonicalised output through one of these, and the
// differential oracle (src/check/) compares the final values. Only
// integers and raw bytes are mixed — never floating point — so a
// digest is stable across platforms and build modes. The whole state
// is value(), so a fold can stop and resume from it.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mrapid {

class Fnv64 {
 public:
  // A fold that continues from the value() of an earlier one: mixing
  // more into it gives what mixing the same into the earlier fold
  // would.
  static Fnv64 resume(std::uint64_t state) {
    Fnv64 fold;
    fold.hash_ = state;
    return fold;
  }

  Fnv64& mix_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= kPrime;
    }
    return *this;
  }

  // The eight little-endian bytes of `v`. Mixing a zero byte only
  // multiplies by the prime (h ^ 0 == h), so the run of high zero bytes
  // folds into the multiply of the last nonzero byte, as one multiply
  // by a power of the prime: the same value as mixing all eight bytes
  // one by one.
  Fnv64& mix(std::uint64_t v) {
    const int bytes = std::max(1, static_cast<int>(std::bit_width(v) + 7) / 8);
    for (int i = 0; i < bytes - 1; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= kPrime;
    }
    hash_ ^= v >> (8 * (bytes - 1));
    hash_ *= kPrimePowers[9 - bytes];
    return *this;
  }

  Fnv64& mix(std::int64_t v) { return mix(static_cast<std::uint64_t>(v)); }

  // Length-prefixed so ("ab","c") and ("a","bc") digest differently.
  Fnv64& mix(std::string_view s) {
    mix(static_cast<std::uint64_t>(s.size()));
    return mix_bytes(s.data(), s.size());
  }

  std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001B3ull;
  // kPrimePowers[z] = kPrime^z (mod 2^64).
  static constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
    std::array<std::uint64_t, 9> powers{};
    powers[0] = 1;
    for (std::size_t z = 1; z < powers.size(); ++z) powers[z] = powers[z - 1] * kPrime;
    return powers;
  }();

  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

}  // namespace mrapid
