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
  // H(1.5) < 0.5 for every s > 0, so Hörmann & Derflinger's fast
  // accept, k - x <= h_int_x1_, never holds: k = floor(x + 0.5) makes
  // k - x > -0.5, and for k >= 1 that subtraction is exact (Sterbenz).
  assert(h_int_x1_ < -0.5);
  h_int_n_ = h_integral(nd_ + 0.5);
  constexpr std::int64_t kTabulatedRanks = 1 << 16;
  accept_.resize(static_cast<std::size_t>(std::min(n, kTabulatedRanks)));
  for (std::size_t i = 0; i < accept_.size(); ++i) {
    const auto k = static_cast<double>(i + 1);
    accept_[i] = h_integral(k + 0.5) - h(k);
  }

  // The guide table. u falls as r53 grows, through monotone IEEE
  // operations only (an exact scaling, one multiply, one add), so every
  // draw of a cell has u between the values at the cell's first draw
  // and the next cell's first one: the acceptance test at those two
  // boundaries settles it for the whole cell. x goes through log and
  // exp, which may be a few ulps off and are not guaranteed monotone,
  // so x at both boundaries must also round to k with a relative margin
  // of 1e-9, far above that error: the exact inverse of every draw's u
  // lies between the boundaries' exact inverses.
  const double max_rank = std::min(nd_, 65535.0);  // fits a uint16_t cell
  auto clear_rank = [max_rank](double x) {  // x's rank, or 0 if near a tie
    const double k = std::floor(x + 0.5);
    if (!(k >= 1 && k <= max_rank)) return 0.0;
    const double margin = 1e-9 * x;
    return x - (k - 0.5) > margin && (k + 0.5) - x > margin ? k : 0.0;
  };
  constexpr std::uint64_t kCells = std::uint64_t{1} << kCellBits;
  guide_.assign(kCells, 0);
  double u_first = u_of(0);
  double k_first = clear_rank(x_of(u_first));
  for (std::uint64_t c = 0; c < kCells; ++c) {
    // The last cell is bounded by its own last draw.
    const std::uint64_t next =
        c + 1 < kCells ? (c + 1) << kCellShift : (std::uint64_t{1} << 53) - 1;
    const double u_next = u_of(next);
    const double k_next = clear_rank(x_of(u_next));
    if (k_first != 0 && k_next == k_first) {
      const double bound = accept_[static_cast<std::size_t>(k_first) - 1];
      if (u_first >= bound && u_next >= bound) guide_[c] = static_cast<std::uint16_t>(k_first);
    }
    u_first = u_next;
    k_first = k_next;
  }
}

std::size_t ZipfSampler::tabulated_cells() const {
  return guide_.size() - static_cast<std::size_t>(std::count(guide_.begin(), guide_.end(), 0));
}

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  if (unit_s_) return log_x;
  return (std::exp(one_minus_s_ * log_x) - 1.0) / one_minus_s_;
}

double ZipfSampler::h(double x) const { return std::exp(-s_ * std::log(x)); }

double ZipfSampler::u_of(std::uint64_t r53) const {
  // next_double()'s value, scaled as the per-call formula scales it.
  return h_int_n_ + static_cast<double>(r53) * 0x1.0p-53 * (h_int_x1_ - h_int_n_);
}

double ZipfSampler::x_of(double u) const {
  // Inverse of h_integral.
  return unit_s_ ? std::exp(u) : std::exp(std::log(1.0 + u * one_minus_s_) / one_minus_s_);
}

std::int64_t ZipfSampler::attempt_per_call(std::uint64_t r53) const {
  const double u = u_of(r53);
  const double x = x_of(u);
  const double k = std::floor(x + 0.5);
  if (!(k >= 1 && k <= nd_)) return 0;
  const auto rank = static_cast<std::size_t>(k);
  const double bound = rank <= accept_.size() ? accept_[rank - 1] : h_integral(k + 0.5) - h(k);
  return u >= bound ? static_cast<std::int64_t>(k) : 0;
}

}  // namespace mrapid
