// The simulation-core throughput baseline (docs/PERF.md): absolute
// events/sec of four engine kernels driven directly — steady-state
// event-churn and the cancel-heavy heartbeat/replan pattern on the slab
// event queue, the placement-shuffle script (10k nodes) that exercises
// the indexed placement engine and the incremental waterfill, and the
// job-scale shuffle drive (2k maps x 512 reducers at 1k nodes) that
// exercises the partition-once registry and the slab fetch engine.
// End-to-end wall time, events/sec and lane beats are perfbench's
// (perfbench/README.md).
//
// Wall-clock output can never be byte-reproducible, so this experiment
// only runs when --filter names it. The recorded baseline is refreshed
// with:
//
//   mrapid_bench --filter sim_core --json BENCH_simcore.json

#include "bench/figures.h"
#include "common/table.h"
#include "exp/sim_core.h"

namespace mrapid::bench {
namespace {

exp::ScenarioSpec make(const exp::SweepOptions& opt) {
  exp::ScenarioSpec spec;
  spec.title = "Simulation core — event throughput (wall clock)";
  spec.axes = {exp::label_axis("variant",
                               {"event-churn", "cancel-heavy", "placement-shuffle", "job-scale"})};
  const bool smoke = opt.smoke;
  const std::uint64_t churn_events = smoke ? 400'000 : 4'000'000;
  const std::size_t churn_window = 1024;
  const std::uint64_t cancel_steps = smoke ? 200'000 : 2'000'000;

  spec.run = [=](const exp::Trial& trial) {
    exp::TrialResult result;
    result.trial = trial;
    try {
      const std::string& variant = trial.str("variant");
      exp::SimCoreResult measured;
      if (variant == "event-churn") {
        measured = exp::sim_core_event_churn(churn_events, churn_window);
      } else if (variant == "cancel-heavy") {
        measured = exp::sim_core_cancel_heavy(cancel_steps);
      } else if (variant == "placement-shuffle") {
        measured = exp::sim_core_placement_shuffle(smoke);
      } else {
        measured = exp::sim_core_job_scale(smoke);
      }
      result.ok = true;
      result.elapsed_seconds = measured.wall_seconds;
      result.set_metric("events", static_cast<double>(measured.events));
      result.set_metric("events_per_sec", measured.events_per_sec);
      result.set_metric("cancelled", static_cast<double>(measured.cancelled));
      result.set_metric("heap_peak", static_cast<double>(measured.heap_peak));
      result.set_metric("slab_slots", static_cast<double>(measured.slab_slots));
      result.set_metric("fetches", static_cast<double>(measured.fetches));
      result.set_metric("coalesced_flows", static_cast<double>(measured.coalesced_flows));
      result.set_metric("partition_calls", static_cast<double>(measured.partition_calls));
    } catch (const std::exception& e) {
      result.ok = false;
      result.error = e.what();
    }
    return result;
  };

  spec.render = [](const std::vector<exp::TrialResult>& results, std::ostream& os) {
    Table table({"variant", "events", "events/sec", "heap peak", "slab slots"});
    table.with_title("Simulation core throughput");
    for (const exp::TrialResult& r : results) {
      if (!r.ok) continue;
      table.add_row({r.trial.str("variant"), Table::num(r.metric("events"), 0),
                     Table::num(r.metric("events_per_sec"), 0),
                     Table::num(r.metric("heap_peak"), 0),
                     Table::num(r.metric("slab_slots"), 0)});
    }
    table.print(os);
    os << "\n(event-churn counts fired events, cancel-heavy push+cancel+fire\n"
          "operations, placement-shuffle replica draws + rate replans, job-scale\n"
          "shuffle fetches. See docs/PERF.md.)\n";
  };
  return spec;
}

const exp::Registrar reg("sim_core",
                         "Simulation-core events/sec baseline (wall clock, BENCH_simcore.json)",
                         make, /*only_on_request=*/true);

}  // namespace
}  // namespace mrapid::bench
