#pragma once

// Deterministic, named random-number streams.
//
// Every stochastic input to the simulator draws from an RngStream that
// is derived from (master seed, stream name). Two simulations built
// with the same master seed and the same stream names observe exactly
// the same random sequences regardless of construction order, which is
// what makes experiment runs reproducible bit-for-bit.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mrapid {

// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
// implementation re-typed), seeded through splitmix64. Fast, decent
// statistical quality, and — unlike std::mt19937 — a guaranteed stable
// algorithm across standard libraries.
class RngStream {
 public:
  RngStream() : RngStream(0xA5A5A5A5u) {}
  explicit RngStream(std::uint64_t seed);
  RngStream(std::uint64_t master_seed, std::string_view stream_name);

  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double next_double();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  // Uniform real in [lo, hi).
  double next_real(double lo, double hi);

  // Exponentially distributed with the given mean (> 0).
  double next_exponential(double mean);

  // Fork a child stream whose sequence is independent of the parent's
  // but fully determined by (parent seed material, name).
  RngStream fork(std::string_view name) const;

 private:
  std::uint64_t state_[4];
  std::uint64_t seed_material_;
};

// Zipf-distributed ranks in [1, n] with exponent s (> 0), via
// rejection-inversion (Hörmann & Derflinger). Used by the synthetic
// text generator to draw word ranks. Everything that depends only on
// (n, s) is computed once here, including the acceptance bound of the
// most frequent ranks; each draw then performs the same floating-point
// operations on the same values as the textbook per-call formula, so
// a stream yields the same ranks either way.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t n, double s);

  std::int64_t operator()(RngStream& rng) const;

  // Heap bytes held by the precomputed bounds.
  std::size_t footprint_bytes() const { return accept_.capacity() * sizeof(double); }

 private:
  double h_integral(double x) const;
  double h(double x) const;

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
};

// Stable 64-bit FNV-1a hash, used to mix stream names into seeds.
std::uint64_t stable_hash64(std::string_view s);

}  // namespace mrapid
