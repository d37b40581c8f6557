#include "workloads/pi.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <span>
#include <vector>

#include "common/hash.h"
#include "workloads/dataset_cache.h"

namespace mrapid::wl {

namespace {

// The textbook digit loop: digit k of `index` in `base`, weighted by f,
// which starts at 1/base and is divided by base once per digit.
double radical_inverse(std::int64_t index, int base) {
  double result = 0.0;
  double f = 1.0 / base;
  while (index > 0) {
    result += f * static_cast<double>(index % base);
    index /= base;
    f /= base;
  }
  return result;
}

// Base 2. The loop adds 2^-(k+1) for every set bit k of the index, in
// order of decreasing size. Distinct powers of two that span at most 53
// bits sum exactly in a double, so below 2^53 every partial sum is
// exact and the result is the bit-reversed index times 2^-64.
double radical_inverse2(std::int64_t index) {
  if (index < 0 || index >= (std::int64_t{1} << 53)) return radical_inverse(index, 2);
  auto v = static_cast<std::uint64_t>(index);
  v = ((v >> 1) & 0x5555555555555555ull) | ((v & 0x5555555555555555ull) << 1);
  v = ((v >> 2) & 0x3333333333333333ull) | ((v & 0x3333333333333333ull) << 2);
  v = ((v >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((v & 0x0F0F0F0F0F0F0F0Full) << 4);
  return static_cast<double>(__builtin_bswap64(v)) * 0x1.0p-64;
}

// Base 3, as the loop's own intermediate values: `low` holds its
// result after the low kLowDigits digits for every possible low part,
// and `f` its weight before each digit.
struct Base3Tables {
  static constexpr int kLowDigits = 10;
  static constexpr std::int64_t kLowSpan = 59049;  // 3^10
  static constexpr int kMaxDigits = 40;            // 3^40 > 2^63

  std::vector<double> low;
  std::array<double, kMaxDigits + 1> f{};

  Base3Tables() : low(kLowSpan) {
    f[0] = 1.0 / 3;
    for (int k = 1; k <= kMaxDigits; ++k) f[k] = f[k - 1] / 3;
    for (std::int64_t i = 0; i < kLowSpan; ++i) {
      low[static_cast<std::size_t>(i)] = radical_inverse(i, 3);
    }
  }
};

// Base 3 for consecutive indices. Past the low digits the loop goes on
// adding f[k] * digit for each higher digit k, in order. A zero digit
// adds +0.0, which leaves the sum unchanged, so the low part's partial
// sum comes from the table whatever the digits above it, and only the
// nonzero terms need adding. Indices that share their high digits
// (runs of up to 3^10) share those terms.
void radical_inverses3(std::int64_t begin, std::span<double> out) {
  static const Base3Tables tables;
  const auto count = static_cast<std::int64_t>(out.size());
  std::int64_t done = 0;
  while (done < count) {
    const std::int64_t index = begin + done;
    double* run_out = out.data() + done;
    if (index < 0) {  // the loop adds nothing
      *run_out = 0.0;
      ++done;
      continue;
    }
    const std::int64_t low = index % Base3Tables::kLowSpan;
    const std::int64_t run = std::min(count - done, Base3Tables::kLowSpan - low);
    std::array<double, Base3Tables::kMaxDigits> terms;
    std::size_t num_terms = 0;
    std::int64_t high = index / Base3Tables::kLowSpan;
    for (int k = Base3Tables::kLowDigits; high > 0; ++k, high /= 3) {
      if (high % 3 != 0) {
        terms[num_terms++] =
            tables.f[static_cast<std::size_t>(k)] * static_cast<double>(high % 3);
      }
    }
    std::copy_n(tables.low.begin() + low, run, run_out);
    for (std::size_t t = 0; t < num_terms; ++t) {
      for (std::int64_t i = 0; i < run; ++i) run_out[i] += terms[t];
    }
    done += run;
  }
}

}  // namespace

void Pi::halton_points(std::int64_t begin, std::span<double> xs, std::span<double> ys) {
  assert(xs.size() == ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = radical_inverse2(begin + static_cast<std::int64_t>(i));
  }
  radical_inverses3(begin, ys);
}

std::pair<double, double> Pi::halton_point(std::int64_t index) {
  double x = 0.0;
  double y = 0.0;
  halton_points(index, {&x, 1}, {&y, 1});
  return {x, y};
}

Pi::Pi(PiParams params) : params_(params) {
  assert(params_.total_samples > 0 && params_.num_maps > 0);
}

std::vector<std::string> Pi::stage(hdfs::Hdfs& hdfs) {
  // Like the Hadoop program: one tiny offset/size file per map. The
  // path encodes the shape so co-staged instances never collide.
  std::vector<std::string> paths;
  for (int i = 0; i < params_.num_maps; ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "/input/pi-%lldx%d/part%d",
                  static_cast<long long>(params_.total_samples), params_.num_maps, i);
    if (!hdfs.namenode().exists(buf)) {
      hdfs.preload_file(buf, 120);  // two longs + sequence-file framing
    }
    paths.emplace_back(buf);
  }
  return paths;
}

mr::MapOutcome Pi::execute_map(const mr::InputSplit& split) const {
  const std::int64_t per_map =
      (params_.total_samples + params_.num_maps - 1) / params_.num_maps;
  const auto map_index = static_cast<std::int64_t>(split.index_in_job);
  const std::int64_t begin = map_index * per_map;
  // With few samples the rounded-up share can leave the last maps
  // nothing, e.g. 5 samples over 4 maps: 2, 2, 1, 0.
  const std::int64_t samples =
      std::max<std::int64_t>(0, std::min(per_map, params_.total_samples - begin));

  // Evaluate a capped number of real points, centred on this map's
  // range so distinct maps sample distinct Halton prefixes. The points
  // inside are shared by every map that evaluates the same ones.
  const std::int64_t evaluated = std::min(samples, params_.fidelity_cap);
  const std::shared_ptr<const PiResult> hits = DatasetCache::instance().acquire_as<PiResult>(
      DatasetKey::pi_map(begin, evaluated), [&] {
        constexpr std::int64_t kChunk = 4096;
        std::vector<double> xs(static_cast<std::size_t>(std::min(evaluated, kChunk)));
        std::vector<double> ys(xs.size());
        std::int64_t inside = 0;
        for (std::int64_t done = 0; done < evaluated; done += kChunk) {
          const auto n = static_cast<std::size_t>(std::min(kChunk, evaluated - done));
          halton_points(begin + done, std::span(xs).first(n), std::span(ys).first(n));
          for (std::size_t i = 0; i < n; ++i) {
            const double dx = xs[i] - 0.5;
            const double dy = ys[i] - 0.5;
            if (dx * dx + dy * dy <= 0.25) ++inside;
          }
        }
        auto built = std::make_shared<const PiResult>(PiResult{inside, evaluated});
        return DatasetCache::Built{built, sizeof(PiResult)};
      });
  // Scale to the full per-map count (exact, and shared, when samples
  // <= cap).
  std::shared_ptr<const PiResult> result = hits;
  if (evaluated != samples) {
    result = std::make_shared<const PiResult>(
        PiResult{(hits->inside * samples + evaluated / 2) / std::max<std::int64_t>(1, evaluated),
                 samples});
  }

  mr::MapOutcome outcome;
  outcome.output_bytes = 24;  // (inside, outside) longs + framing
  outcome.output_records = 2;
  outcome.core_seconds = static_cast<double>(samples) / params_.samples_per_core_second;
  outcome.data = result;
  return outcome;
}

std::uint64_t Pi::result_digest(const mr::JobResult& result) const {
  // Pi's reduce output is never a cached entry, so there is no step
  // to memoize.
  return fold_partitions(result, std::nullopt, [](Fnv64& digest, const void* partition) {
    const auto& partial = *static_cast<const PiResult*>(partition);
    digest.mix(partial.inside);
    digest.mix(partial.total);
  });
}

mr::ReduceOutcome Pi::execute_reduce(std::span<const mr::MapOutcome> maps) const {
  auto combined = std::make_shared<PiResult>();
  for (const auto& map : maps) {
    if (!map.data) continue;
    const auto& partial = *std::static_pointer_cast<const PiResult>(map.data);
    combined->inside += partial.inside;
    combined->total += partial.total;
  }
  mr::ReduceOutcome outcome;
  outcome.output_bytes = 64;  // the tiny result file
  outcome.core_seconds = 0.001;
  outcome.result = combined;
  return outcome;
}

}  // namespace mrapid::wl
