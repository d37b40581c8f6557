#pragma once

// Strongly-typed units used across the MRapid simulator.
//
// Byte counts are exact (int64); data rates are bytes/second (double).
// Simulated time lives in sim/time.h; this header is deliberately free
// of simulator dependencies so workloads and reporting can use it too.

#include <cstdint>
#include <string>

namespace mrapid {

using Bytes = std::int64_t;

inline constexpr Bytes operator""_B(unsigned long long v) { return static_cast<Bytes>(v); }
inline constexpr Bytes operator""_KB(unsigned long long v) { return static_cast<Bytes>(v) * 1024; }
inline constexpr Bytes operator""_MB(unsigned long long v) { return static_cast<Bytes>(v) * 1024 * 1024; }
inline constexpr Bytes operator""_GB(unsigned long long v) { return static_cast<Bytes>(v) * 1024 * 1024 * 1024; }

constexpr Bytes megabytes(double v) { return static_cast<Bytes>(v * 1024.0 * 1024.0); }

constexpr double to_mb(Bytes b) { return static_cast<double>(b) / (1024.0 * 1024.0); }
constexpr double to_gb(Bytes b) { return static_cast<double>(b) / (1024.0 * 1024.0 * 1024.0); }

// A data rate in bytes per second. Kept as a tiny struct (rather than a
// bare double) so rates and sizes cannot be mixed up at call sites.
struct Rate {
  double bytes_per_sec = 0.0;

  static constexpr Rate mb_per_sec(double mb) { return Rate{mb * 1024.0 * 1024.0}; }
  static constexpr Rate gbit_per_sec(double gbit) { return Rate{gbit * 1e9 / 8.0}; }

  constexpr double seconds_for(Bytes b) const {
    return bytes_per_sec > 0 ? static_cast<double>(b) / bytes_per_sec : 0.0;
  }
  constexpr bool valid() const { return bytes_per_sec > 0; }

  friend constexpr bool operator==(Rate a, Rate b) { return a.bytes_per_sec == b.bytes_per_sec; }
  friend constexpr auto operator<=>(Rate a, Rate b) { return a.bytes_per_sec <=> b.bytes_per_sec; }
};

// Human-readable formatting helpers (used by reports and logs).
std::string format_bytes(Bytes b);
std::string format_rate(Rate r);

}  // namespace mrapid
