#pragma once

// The declarative half of the experiment layer: a ScenarioSpec names
// the sweep (axes x modes x seeds), how to run one Trial, and how the
// results render. Every figure/table of the paper registers one of
// these (exp/registry.h); the SweepRunner (exp/runner.h) expands the
// spec into Trials and executes them — serially or across the thread
// pool — and the ResultSink (exp/sink.h) renders tables and JSON.
//
// Expansion is cartesian and deterministic: axes in declaration order
// (first axis outermost), then execution mode, then seed. Trial
// indices are dense in that order, so parallel execution can store
// results by index and produce byte-identical output to a serial run.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/table.h"
#include "harness/world.h"

namespace mrapid::exp {

// One value on a sweep axis: a display/param label plus the numeric
// value used as the x coordinate in series reports.
struct AxisValue {
  std::string label;
  double num = 0.0;
};

struct SweepAxis {
  std::string name;
  std::vector<AxisValue> values;
};

SweepAxis num_axis(std::string name, const std::vector<double>& values);
SweepAxis int_axis(std::string name, const std::vector<long long>& values);
// Labels only; num is the position index.
SweepAxis label_axis(std::string name, const std::vector<std::string>& labels);

// One point of the expanded sweep.
struct Trial {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::optional<harness::RunMode> mode;  // absent when the spec has no mode set
  std::vector<std::pair<std::string, AxisValue>> params;  // axis order

  const AxisValue* find(std::string_view axis) const;
  const AxisValue& param(std::string_view axis) const;  // throws std::out_of_range
  double num(std::string_view axis) const { return param(axis).num; }
  const std::string& str(std::string_view axis) const { return param(axis).label; }
  std::string mode_name() const;  // "" when mode is absent
  std::string label() const;      // "files=4 mode=D+" — for errors and logs
};

// What one trial produced. A failed trial stays in the result list
// (ok=false + error) so one wedged point never kills a sweep.
struct TrialResult {
  Trial trial;
  bool ok = false;
  std::string error;

  // Phase breakdown of the measured run. has_breakdown is set by
  // fill_breakdown; trials that never ran a job (engine benchmarks)
  // leave it false and the JSON sink omits their breakdown block.
  double elapsed_seconds = 0.0;
  bool has_breakdown = false;
  double am_setup_seconds = 0.0;
  double map_phase_seconds = 0.0;
  double shuffled_mb = 0.0;
  std::size_t maps = 0;
  std::size_t node_local_maps = 0;
  std::size_t failed_attempts = 0;

  // Experiment-specific named outputs, in insertion order so renders
  // and JSON stay deterministic.
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> notes;

  void set_metric(std::string name, double value);
  double metric(std::string_view name) const;  // NaN when absent
  void set_note(std::string name, std::string value);
  const std::string* note(std::string_view name) const;
};

struct ScenarioSpec {
  std::string title;
  // Axis whose numeric value is the x coordinate of the default series
  // report; defaults to the first axis. x_label overrides the printed
  // axis header (e.g. axis "file_mb" displayed as "file MB").
  std::string x_axis;
  std::string x_label;
  std::string baseline_series;

  std::vector<SweepAxis> axes;
  std::vector<harness::RunMode> modes;
  std::vector<std::uint64_t> seeds;  // empty -> {WorldConfig{}.seed}

  // Executes one trial. May throw (e.g. TrialFailure): the runner
  // records the exception as the trial's error. Null means a single
  // trivially-ok trial (render-only experiments like Table II).
  std::function<TrialResult(const Trial&)> run;

  // Series name for the default report; defaults to the mode name.
  std::function<std::string(const Trial&)> series;

  // Extra lines after the default series report (landmark checks).
  std::function<void(const SeriesReport&, const std::vector<TrialResult>&, std::ostream&)>
      epilogue;

  // Full replacement for the default rendering (custom tables).
  std::function<void(const std::vector<TrialResult>&, std::ostream&)> render;
};

std::vector<Trial> expand_trials(const ScenarioSpec& spec,
                                 std::optional<std::uint64_t> seed_override = {});

std::string series_name(const ScenarioSpec& spec, const Trial& trial);

// snprintf into a std::string — lets ported printf-style epilogues
// write to the render stream (which may be a test's stringstream).
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace mrapid::exp
