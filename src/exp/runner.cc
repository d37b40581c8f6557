#include "exp/runner.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace mrapid::exp {

std::vector<TrialResult> SweepRunner::run(const ScenarioSpec& spec) const {
  const std::vector<Trial> trials = expand_trials(spec, options_.seed);
  std::vector<TrialResult> results(trials.size());

  std::size_t jobs = options_.jobs == 0
                         ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
                         : options_.jobs;
  jobs = std::min(jobs, trials.size());

  if (jobs <= 1) {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      results[i] = run_one(spec, trials[i]);
    }
  } else {
    ThreadPool pool(jobs);
    // run_one never throws (trial errors are captured), so this
    // parallel_for cannot abort mid-sweep.
    pool.parallel_for(trials.size(),
                      [&](std::size_t i) { results[i] = run_one(spec, trials[i]); });
  }
  return results;
}

TrialResult SweepRunner::run_one(const ScenarioSpec& spec, const Trial& trial) const {
  // Per-trial severity threshold: parallel trials each set their own
  // worker thread's level, so INFO spam from one run cannot interleave
  // with another's (the sink itself stays mutex-guarded).
  ScopedLogThreshold log_guard(options_.log_level);

  TrialResult result;
  try {
    if (spec.run) {
      result = spec.run(trial);
    } else {
      result.ok = true;  // render-only experiment
    }
  } catch (const std::exception& e) {
    result = TrialResult{};
    result.ok = false;
    result.error = e.what();
  } catch (...) {
    result = TrialResult{};
    result.ok = false;
    result.error = "unknown exception";
  }
  result.trial = trial;
  return result;
}

mr::JobResult run_or_throw(const harness::WorldConfig& config, harness::RunMode mode,
                           wl::Workload& workload,
                           const std::function<void(mr::JobSpec&)>& adjust_spec) {
  harness::World world(config, mode);
  auto result = adjust_spec ? world.run(workload, adjust_spec) : world.run(workload);
  if (!result.has_value()) {
    throw TrialFailure(std::string(harness::run_mode_name(mode)) + " run of " +
                       workload.name() + " hit the " +
                       strprintf("%.0fs", config.deadline.as_seconds()) +
                       " simulation deadline");
  }
  if (!result->succeeded) {
    throw TrialFailure(std::string(harness::run_mode_name(mode)) + " run of " +
                       workload.name() + " failed (retries exhausted)");
  }
  return *result;
}

double elapsed_or_throw(const harness::WorldConfig& config, harness::RunMode mode,
                        wl::Workload& workload,
                        const std::function<void(mr::JobSpec&)>& adjust_spec) {
  return run_or_throw(config, mode, workload, adjust_spec).profile.elapsed_seconds();
}

void fill_breakdown(TrialResult& result, const mr::JobProfile& profile) {
  result.elapsed_seconds = profile.elapsed_seconds();
  result.has_breakdown = true;
  result.am_setup_seconds = profile.am_setup_seconds();
  result.map_phase_seconds = profile.map_phase_seconds();
  result.shuffled_mb = to_mb(profile.shuffled_bytes);
  result.maps = profile.maps.size();
  result.node_local_maps = profile.node_local_maps;
  result.failed_attempts = profile.failed_attempts;
}

TrialResult run_world_trial(const harness::WorldConfig& config, harness::RunMode mode,
                            wl::Workload& workload, const Trial& trial,
                            const std::function<void(mr::JobSpec&)>& adjust_spec) {
  TrialResult result;
  result.trial = trial;
  try {
    const mr::JobResult run = run_or_throw(config, mode, workload, adjust_spec);
    result.ok = true;
    fill_breakdown(result, run.profile);
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  return result;
}

}  // namespace mrapid::exp
