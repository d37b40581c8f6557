#include "exp/sink.h"

#include <ostream>

#include "exp/json.h"

namespace mrapid::exp {

bool ExperimentRun::all_ok() const { return failed_count() == 0; }

std::size_t ExperimentRun::failed_count() const {
  std::size_t failed = 0;
  for (const auto& r : results) {
    if (!r.ok) ++failed;
  }
  return failed;
}

namespace {

std::string x_axis_name(const ScenarioSpec& spec) {
  if (!spec.x_axis.empty()) return spec.x_axis;
  return spec.axes.empty() ? std::string() : spec.axes.front().name;
}

}  // namespace

SeriesReport build_series_report(const ScenarioSpec& spec,
                                 const std::vector<TrialResult>& results) {
  const std::string x_name = x_axis_name(spec);
  SeriesReport report(spec.title, spec.x_label.empty() ? x_name : spec.x_label);
  if (!spec.baseline_series.empty()) report.set_baseline(spec.baseline_series);
  for (const TrialResult& result : results) {
    if (!result.ok) continue;
    const AxisValue* x = result.trial.find(x_name);
    report.add_point(series_name(spec, result.trial), x ? x->num : 0.0,
                     result.elapsed_seconds);
  }
  return report;
}

void render_report(const ExperimentRun& run, std::ostream& os) {
  if (run.spec.render) {
    run.spec.render(run.results, os);
  } else {
    const SeriesReport report = build_series_report(run.spec, run.results);
    report.print(os);
    if (run.spec.epilogue) run.spec.epilogue(report, run.results, os);
  }
  for (const TrialResult& result : run.results) {
    if (!result.ok) {
      os << "FAILED trial [" << result.trial.label() << "]: " << result.error << "\n";
    }
  }
}

void write_json(std::ostream& os, const std::vector<ExperimentRun>& runs,
                const SweepOptions& options) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "mrapid-bench-results/v1");
  w.kv("smoke", options.smoke);
  w.kv("jobs", options.jobs);
  w.key("experiments").begin_array();
  for (const ExperimentRun& run : runs) {
    w.begin_object();
    w.kv("name", run.name);
    w.kv("title", run.spec.title);
    w.kv("failed_trials", run.failed_count());
    w.key("trials").begin_array();
    for (const TrialResult& r : run.results) {
      w.begin_object();
      w.key("params").begin_object();
      for (const auto& [axis, value] : r.trial.params) w.kv(axis, value.label);
      w.end_object();
      if (r.trial.mode) {
        w.kv("mode", r.trial.mode_name());
      } else {
        w.key("mode").null();
      }
      w.kv("seed", static_cast<std::uint64_t>(r.trial.seed));
      w.kv("ok", r.ok);
      if (!r.ok) w.kv("error", r.error);
      w.kv("elapsed_s", r.elapsed_seconds);
      if (r.has_breakdown) {
        w.key("breakdown").begin_object();
        w.kv("am_setup_s", r.am_setup_seconds);
        w.kv("map_phase_s", r.map_phase_seconds);
        w.kv("shuffled_mb", r.shuffled_mb);
        w.kv("maps", r.maps);
        w.kv("node_local_maps", r.node_local_maps);
        w.kv("failed_attempts", r.failed_attempts);
        w.end_object();
      }
      if (!r.metrics.empty()) {
        w.key("metrics").begin_object();
        for (const auto& [name, v] : r.metrics) w.kv(name, v);
        w.end_object();
      }
      if (!r.notes.empty()) {
        w.key("notes").begin_object();
        for (const auto& [name, v] : r.notes) w.kv(name, v);
        w.end_object();
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

}  // namespace mrapid::exp
