#pragma once

// ResultSink: renders a finished sweep as the familiar common/table
// output and as machine-readable JSON. All rendering happens after
// every trial has completed and reads results in trial-index order, so
// --jobs N output is byte-identical to --jobs 1.

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/scenario.h"

namespace mrapid::exp {

// One executed experiment: the registered name, the spec it ran with
// (render closures included) and the ordered results.
struct ExperimentRun {
  std::string name;
  ScenarioSpec spec;
  std::vector<TrialResult> results;

  bool all_ok() const;
  std::size_t failed_count() const;
};

// Default series report over the successful trials: series name from
// the spec (mode name by default), x from the spec's x axis, y =
// elapsed seconds.
SeriesReport build_series_report(const ScenarioSpec& spec,
                                 const std::vector<TrialResult>& results);

// Custom render when the spec has one, else the series report plus the
// spec's epilogue; failed trials are listed either way.
void render_report(const ExperimentRun& run, std::ostream& os);

// The BENCH_*.json document: schema header + per-experiment trial
// records (params/mode/seed/elapsed/metrics/errors, plus the phase
// breakdown of trials that went through fill_breakdown).
void write_json(std::ostream& os, const std::vector<ExperimentRun>& runs,
                const SweepOptions& options);

}  // namespace mrapid::exp
