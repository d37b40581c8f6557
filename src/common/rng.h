#pragma once

// Deterministic, named random-number streams.
//
// Every stochastic input to the simulator draws from an RngStream that
// is derived from (master seed, stream name). Two simulations built
// with the same master seed and the same stream names observe exactly
// the same random sequences regardless of construction order, which is
// what makes experiment runs reproducible bit-for-bit.

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mrapid {

// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
// implementation re-typed), seeded through splitmix64. Fast, decent
// statistical quality, and — unlike std::mt19937 — a guaranteed stable
// algorithm across standard libraries. The integer draws are defined
// here so that a call with constant bounds compiles its range
// arithmetic down to multiplies.
class RngStream {
 public:
  RngStream() : RngStream(0xA5A5A5A5u) {}
  explicit RngStream(std::uint64_t seed);
  RngStream(std::uint64_t master_seed, std::string_view stream_name);

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1): 53 random mantissa bits.
  double next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    // Unsigned arithmetic throughout: the full 64-bit span wraps to 0.
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (range == 0) return static_cast<std::int64_t>(next_u64());
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % range + 1) % range;
    std::uint64_t v;
    do {
      v = next_u64();
    } while (v > limit);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + v % range);
  }

  // Uniform real in [lo, hi).
  double next_real(double lo, double hi);

  // Exponentially distributed with the given mean (> 0).
  double next_exponential(double mean);

  // Fork a child stream whose sequence is independent of the parent's
  // but fully determined by (parent seed material, name).
  RngStream fork(std::string_view name) const;

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4];
  std::uint64_t seed_material_;
};

// Zipf-distributed ranks in [1, n] with exponent s (> 0), via
// rejection-inversion (Hörmann & Derflinger). Used by the synthetic
// text generator to draw word ranks. Everything that depends only on
// (n, s) is computed once here: the acceptance bound of the most
// frequent ranks, and a guide table over the top 16 of a draw's 53
// uniform bits. A cell of the table holds the rank every draw in it
// accepts, proved at construction from the cell's ends (see
// rng.cc); such a draw is answered by the lookup. Every other draw
// performs the same floating-point operations on the same values as
// the textbook per-call formula. Either way a stream yields the ranks,
// and consumes the draws, of that formula.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t n, double s);

  std::int64_t operator()(RngStream& rng) const {
    if (n_ == 1) return 1;
    for (;;) {
      if (const std::int64_t rank = attempt(rng.next_u64() >> 11)) return rank;
    }
  }

  // One rejection-inversion attempt on the 53 uniform bits `r53` (the
  // bits next_double() scales): the rank it accepts, or 0 when it
  // rejects and the sampler draws again.
  std::int64_t attempt(std::uint64_t r53) const {
    const std::uint16_t rank = guide_[r53 >> kCellShift];
    return rank != 0 ? rank : attempt_per_call(r53);
  }

  // Number of guide cells that answer without the formula.
  std::size_t tabulated_cells() const;

  // Heap bytes held by the precomputed bounds and the guide table.
  std::size_t footprint_bytes() const {
    return accept_.capacity() * sizeof(double) + guide_.capacity() * sizeof(std::uint16_t);
  }

  static constexpr int kCellBits = 16;
  static constexpr int kCellShift = 53 - kCellBits;

 private:
  double h_integral(double x) const;
  double h(double x) const;
  double u_of(std::uint64_t r53) const;
  double x_of(double u) const;
  std::int64_t attempt_per_call(std::uint64_t r53) const;

  std::int64_t n_;
  double nd_;
  double s_;
  double one_minus_s_;
  bool unit_s_;  // s == 1 to 1e-12: H(x) = log x
  double h_int_x1_;
  double h_int_n_;
  // accept_[k - 1] = h_integral(k + 0.5) - h(k) for the first ranks,
  // which take most draws.
  std::vector<double> accept_;
  // guide_[r53 >> kCellShift]: the rank of every draw in the cell, or
  // 0 where the formula decides.
  std::vector<std::uint16_t> guide_;
};

// Stable 64-bit FNV-1a hash, used to mix stream names into seeds.
std::uint64_t stable_hash64(std::string_view s);

}  // namespace mrapid
