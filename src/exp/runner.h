#pragma once

// SweepRunner: expands a ScenarioSpec into Trials and executes them,
// serially (--jobs 1) or across the ThreadPool (--jobs N). World runs
// are fully independent — each trial builds a fresh World on its own
// worker thread — so the results are written by trial index and the
// rendered output is byte-identical regardless of the job count.
//
// Failure model: a trial that throws, fails, or hits the simulation
// deadline becomes a recorded error in its TrialResult (the old
// bench::must_run std::abort is gone); the driver turns any failed
// trial into a non-zero exit after the whole sweep has run.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/log.h"
#include "exp/scenario.h"
#include "harness/world.h"

namespace mrapid::exp {

// Thrown by trial bodies when a required run cannot complete; the
// runner records it on the trial instead of unwinding the sweep.
struct TrialFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct SweepOptions {
  bool smoke = false;      // tiny CI-sized geometries
  std::size_t jobs = 1;    // worker threads (0 = hardware concurrency)
  std::optional<std::uint64_t> seed;  // overrides the spec's seed list
  LogLevel log_level = LogLevel::kWarn;  // per-trial severity threshold
};

class SweepRunner {
 public:
  explicit SweepRunner(const SweepOptions& options) : options_(options) {}

  // Results in trial-index order, one entry per expanded trial.
  std::vector<TrialResult> run(const ScenarioSpec& spec) const;

 private:
  TrialResult run_one(const ScenarioSpec& spec, const Trial& trial) const;

  SweepOptions options_;
};

// Runs `workload` in `mode` on a fresh world and returns the full job
// result; throws TrialFailure on deadline or failed execution. For
// trial bodies that need several measured runs (ablations, estimator
// validation, speculative execution).
mr::JobResult run_or_throw(const harness::WorldConfig& config, harness::RunMode mode,
                           wl::Workload& workload,
                           const std::function<void(mr::JobSpec&)>& adjust_spec = {});

double elapsed_or_throw(const harness::WorldConfig& config, harness::RunMode mode,
                        wl::Workload& workload,
                        const std::function<void(mr::JobSpec&)>& adjust_spec = {});

// The standard single-measurement trial body: runs the workload and
// fills a TrialResult (phase breakdown included); failures land in
// .error instead of throwing.
TrialResult run_world_trial(const harness::WorldConfig& config, harness::RunMode mode,
                            wl::Workload& workload, const Trial& trial,
                            const std::function<void(mr::JobSpec&)>& adjust_spec = {});

// Copies the profile's phase breakdown into the result and marks it
// present, so the JSON sink writes it.
void fill_breakdown(TrialResult& result, const mr::JobProfile& profile);

}  // namespace mrapid::exp
