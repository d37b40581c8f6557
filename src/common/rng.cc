#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mrapid {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

std::uint64_t stable_hash64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

RngStream::RngStream(std::uint64_t seed) : seed_material_(seed) {
  std::uint64_t x = seed;
  for (auto& s : state_) s = splitmix64(x);
}

RngStream::RngStream(std::uint64_t master_seed, std::string_view stream_name)
    : RngStream(master_seed ^ rotl(stable_hash64(stream_name), 17)) {}

std::uint64_t RngStream::next_u64() {
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

double RngStream::next_double() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t RngStream::next_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit span
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % range + 1) % range;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v > limit);
  return lo + static_cast<std::int64_t>(v % range);
}

double RngStream::next_real(double lo, double hi) { return lo + (hi - lo) * next_double(); }

double RngStream::next_exponential(double mean) {
  assert(mean > 0);
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

RngStream RngStream::fork(std::string_view name) const {
  return RngStream(seed_material_, name);
}

ZipfSampler::ZipfSampler(std::int64_t n, double s)
    : n_(n),
      nd_(static_cast<double>(n)),
      s_(s),
      one_minus_s_(1.0 - s),
      unit_s_(std::fabs(1.0 - s) < 1e-12),
      h_int_x1_(0.0),
      h_int_n_(0.0) {
  assert(n >= 1 && s > 0);
  h_int_x1_ = h_integral(1.5) - 1.0;
  h_int_n_ = h_integral(nd_ + 0.5);
  constexpr std::int64_t kTabulatedRanks = 1 << 16;
  accept_.resize(static_cast<std::size_t>(std::min(n, kTabulatedRanks)));
  for (std::size_t i = 0; i < accept_.size(); ++i) {
    const auto k = static_cast<double>(i + 1);
    accept_[i] = h_integral(k + 0.5) - h(k);
  }
}

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  if (unit_s_) return log_x;
  return (std::exp(one_minus_s_ * log_x) - 1.0) / one_minus_s_;
}

double ZipfSampler::h(double x) const { return std::exp(-s_ * std::log(x)); }

std::int64_t ZipfSampler::operator()(RngStream& rng) const {
  if (n_ == 1) return 1;
  for (;;) {
    const double u = h_int_n_ + rng.next_double() * (h_int_x1_ - h_int_n_);
    // Inverse of h_integral.
    const double x =
        unit_s_ ? std::exp(u) : std::exp(std::log(1.0 + u * one_minus_s_) / one_minus_s_);
    const double k = std::floor(x + 0.5);
    if (k < 1 || k > nd_) continue;
    if (k - x <= h_int_x1_) return static_cast<std::int64_t>(k);
    const auto rank = static_cast<std::size_t>(k);
    if (u >= (rank <= accept_.size() ? accept_[rank - 1] : h_integral(k + 0.5) - h(k))) {
      return static_cast<std::int64_t>(k);
    }
  }
}

}  // namespace mrapid
