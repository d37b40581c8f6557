#pragma once

// PI: quasi-Monte-Carlo estimation using the 2-D Halton sequence,
// matching the Hadoop examples QuasiMonteCarlo program. Each map
// evaluates its share of sample points and emits (inside, outside)
// counts; the reduce combines them into the pi estimate.
//
// Fidelity: sample counts in the paper reach 1.6 billion; evaluating
// every point would dominate wall-clock for zero benefit, so each map
// evaluates min(samples, fidelity_cap) real Halton points (the
// estimate comes from those) and the *timed* CPU work is scaled to the
// full count. This is the documented simulate-the-scale substitution.

#include <memory>
#include <span>
#include <utility>

#include "workloads/workload.h"

namespace mrapid::wl {

struct PiResult {
  std::int64_t inside = 0;
  std::int64_t total = 0;
  double estimate() const {
    return total > 0 ? 4.0 * static_cast<double>(inside) / static_cast<double>(total) : 0.0;
  }
};

struct PiParams {
  std::int64_t total_samples = 100000000;  // the paper's x-axis, 100m..1600m
  int num_maps = 4;
  std::int64_t fidelity_cap = 2000000;  // real Halton points per map
  // Sample evaluation throughput per core (JVM-era quasi-MC).
  double samples_per_core_second = 5e7;
};

class Pi : public Workload {
 public:
  explicit Pi(PiParams params);

  std::string name() const override { return "pi"; }
  std::vector<std::string> stage(hdfs::Hdfs& hdfs) override;

  mr::MapOutcome execute_map(const mr::InputSplit& split) const override;
  mr::ReduceOutcome execute_reduce(std::span<const mr::MapOutcome> maps) const override;
  std::uint64_t result_digest(const mr::JobResult& result) const override;

  // Cache-resident numeric kernel: co-scheduled PI maps scale almost
  // perfectly — why U+ stays the best choice even at 1600m samples.
  double compute_contention() const override { return 0.0; }

  const PiParams& params() const { return params_; }

  static std::shared_ptr<const PiResult> result_of(const mr::JobResult& result) {
    return std::static_pointer_cast<const PiResult>(result.reduce_result);
  }

  // The 2-D Halton points (bases 2 and 3) for indices begin,
  // begin + 1, ..., one per element of xs and ys (equal sizes). Exposed
  // for tests.
  static void halton_points(std::int64_t begin, std::span<double> xs, std::span<double> ys);
  // The point for one index.
  static std::pair<double, double> halton_point(std::int64_t index);

 private:
  PiParams params_;
};

}  // namespace mrapid::wl
