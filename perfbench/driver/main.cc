// perfbench_driver: runs one benchmark workload once, in this process,
// and prints one JSON line of raw measurements on stdout. run.py runs
// it in fresh processes, then checks and aggregates what it prints.
//
//   perfbench_driver --workload paper-sweep|tenant-stream|cluster-scale
//                    --seed N [--trace] [--verify] [--inject-bug drop-shard]
//
// Host times are steady_clock wall times; every "sim"/latency figure is
// simulated time. --trace wraps the workload payload (paper-sweep) and
// the YARN scheduler (all workloads) in the timing decorators of
// probes.h; nothing else changes, so both runs must simulate exactly
// the same events. --verify checks every job's digest against the
// reference executor after the timed region (run.py verifies its first
// process and requires the others to reproduce its digests exactly).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/reference.h"
#include "cluster/azure.h"
#include "cluster/network.h"
#include "driver/probes.h"
#include "exp/runner.h"
#include "exp/workload_factory.h"
#include "harness/stream_pump.h"
#include "harness/world.h"
#include "workloads/pi.h"
#include "workloads/terasort.h"
#include "workloads/wordcount.h"
#include "yarn/node_table.h"
#include "yarn/scheduling_algorithm.h"

namespace mrapid::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Set-up is timed this many times per process and the samples are
// reported separately, so run.py can take their median: one sample of
// a few milliseconds is mostly page-fault noise, and the first few
// builds of a 10k-node world run 3-5x slower while the allocator warms.
constexpr int kSetupReps = 25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool verify = false;
  mr::InjectedBug injected_bug = mr::InjectedBug::kNone;
};

// Named counters summed (or maxed) over every world a run built.
class Counters {
 public:
  void add(const std::string& name, double value) { values_[name] += value; }
  void peak(const std::string& name, double value) {
    double& slot = values_[name];
    if (value > slot) slot = value;
  }
  void merge(const Counters& other) {
    for (const auto& [name, value] : other.values_) {
      if (name == "sim.heap_peak" || name == "sim.slab_slots") {
        peak(name, value);
      } else {
        add(name, value);
      }
    }
  }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

void add_timer(Counters& counters, const std::string& name, const CallTimer& timer) {
  counters.add(name + "_calls", static_cast<double>(timer.calls));
  counters.add(name + "_s", timer.seconds);
}

// Reads every layer's public Stats from one finished world.
void harvest(harness::World& world, Counters& out) {
  sim::Simulation& sim = world.simulation();
  out.add("sim.events", static_cast<double>(sim.processed_events()));
  out.add("sim.queue_pushed", static_cast<double>(sim.queue_stats().pushed));
  out.add("sim.queue_cancelled", static_cast<double>(sim.queue_stats().cancelled));
  out.peak("sim.heap_peak", static_cast<double>(sim.queue_stats().heap_peak));
  out.peak("sim.slab_slots", static_cast<double>(std::max(sim.queue_stats().slab_capacity,
                                                          sim.wheel_stats().slab_capacity)));
  out.add("sim.wheel_fired", static_cast<double>(sim.wheel_stats().fired));
  out.add("sim.wheel_cancelled", static_cast<double>(sim.wheel_stats().cancelled));

  yarn::Scheduler* scheduler = &world.rm().scheduler();
  if (auto* probe = dynamic_cast<TimedScheduler*>(scheduler)) {
    add_timer(out, "yarn.node_update", probe->times().node_update);
    add_timer(out, "yarn.container_request", probe->times().container_request);
    scheduler = &probe->inner();
  }
  if (const auto* policy = dynamic_cast<const yarn::PolicyScheduler*>(scheduler)) {
    out.add("yarn.asks_queued", static_cast<double>(policy->counters().queued));
    out.add("yarn.asks_delivered", static_cast<double>(policy->counters().delivered));
    out.add("yarn.asks_cancelled", static_cast<double>(policy->counters().cancelled));
    out.add("yarn.asks_backfilled", static_cast<double>(policy->counters().backfilled));
  }
  const yarn::NodeTable::Stats& table = world.rm().node_table()->stats();
  out.add("yarn.lookups", static_cast<double>(table.lookups));
  out.add("yarn.first_fit_calls", static_cast<double>(table.first_fit_calls));
  out.add("yarn.first_fit_nodes_visited", static_cast<double>(table.first_fit_nodes_visited));
  out.add("yarn.tree_updates", static_cast<double>(table.tree_updates));

  const cluster::Network::Stats& net = world.cluster().network().stats();
  out.add("cluster.flows_started", static_cast<double>(net.flows_started));
  out.add("cluster.replans", static_cast<double>(net.replans));
  out.add("cluster.links_scanned", static_cast<double>(net.links_scanned));

  out.add("mapreduce.fetches", static_cast<double>(world.shuffle_stats().fetches));
  out.add("mapreduce.coalesced_flows", static_cast<double>(world.shuffle_stats().coalesced_flows));
  out.add("mapreduce.partition_calls", static_cast<double>(world.shuffle_stats().partition_calls));

  const hdfs::Hdfs::ReadStats& reads = world.hdfs().read_stats();
  out.add("hdfs.reads_node_local", static_cast<double>(reads.node_local));
  out.add("hdfs.reads_rack_local", static_cast<double>(reads.rack_local));
  out.add("hdfs.reads_off_rack", static_cast<double>(reads.off_rack));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// One job (or trial) the run attempted. `digest` is meaningful only
// when `ok`.
struct JobOutcome {
  std::string label;
  bool ok = false;
  std::string error;
  double latency_s = 0.0;  // simulated, submit -> client-observed completion
  double wait_s = 0.0;     // simulated tenant-queue wait (streams only)
  std::uint64_t digest = 0;
};

// Everything one run measured.
struct Report {
  std::vector<double> setup_s;
  double wall_s = 0.0;
  double post_boot_rss_mb = 0.0;
  std::vector<JobOutcome> jobs;
  Counters layers;  // per-layer counters and outside-in timings
};

// Every job's digest must equal the in-process reference executor's
// answer for its workload (check/reference.h, the fuzz oracle's
// ground truth). Runs after the timed region.
void check_against_reference(std::vector<JobOutcome>& jobs,
                             const std::vector<wl::Workload*>& workloads) {
  std::map<wl::Workload*, std::uint64_t> reference;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobOutcome& job = jobs[i];
    if (!job.ok) continue;
    auto it = reference.find(workloads[i]);
    if (it == reference.end()) {
      it = reference.emplace(workloads[i], check::reference_digest({}, *workloads[i])).first;
    }
    if (job.digest != it->second) {
      job.ok = false;
      job.error = "result digest differs from the reference executor";
    }
  }
}

harness::WorldConfig base_config(const Options& options, harness::RunMode mode) {
  harness::WorldConfig config;
  config.seed = options.seed;
  config.mr.injected_bug = options.injected_bug;
  if (options.trace) {
    config.scheduler = timed_scheduler_name(harness::is_mrapid_mode(mode)
                                                ? core::kPolicyMRapidDPlus
                                                : core::kPolicyHadoopCapacity);
  }
  return config;
}

// ---- paper-sweep ------------------------------------------------------
//
// The shape of Figs. 7/10/11: each trial builds a fresh workload and
// runs it once on the A3 cluster in one of the four figure modes, as
// the registered fig7/fig10/fig11 experiments do per trial. Almost pure
// payload: a few thousand simulated events per sweep.

struct Shape {
  const char* label;
  std::function<std::unique_ptr<wl::Workload>(std::uint64_t seed)> make;
};

std::unique_ptr<wl::Workload> wordcount(std::size_t files, std::uint64_t seed) {
  wl::WordCountParams params;
  params.num_files = files;
  params.bytes_per_file = 1_MB;
  params.seed = seed;
  return std::make_unique<wl::WordCount>(params);
}

std::unique_ptr<wl::Workload> terasort(std::int64_t rows, std::uint64_t seed) {
  wl::TeraSortParams params;
  params.rows = rows;
  params.seed = seed;
  return std::make_unique<wl::TeraSort>(params);
}

std::unique_ptr<wl::Workload> pi(std::int64_t samples) {
  wl::PiParams params;
  params.total_samples = samples;
  // Simulated CPU time scales with total_samples either way; the cap
  // only bounds how many Halton points each map really evaluates.
  params.fidelity_cap = 500'000;
  return std::make_unique<wl::Pi>(params);
}

const std::vector<Shape>& sweep_shapes() {
  static const std::vector<Shape> shapes = {
      {"wordcount-1x1MB", [](std::uint64_t seed) { return wordcount(1, seed); }},
      {"wordcount-2x1MB", [](std::uint64_t seed) { return wordcount(2, seed); }},
      {"wordcount-4x1MB", [](std::uint64_t seed) { return wordcount(4, seed); }},
      {"wordcount-8x1MB", [](std::uint64_t seed) { return wordcount(8, seed); }},
      {"terasort-100k", [](std::uint64_t seed) { return terasort(100'000, seed); }},
      {"terasort-200k", [](std::uint64_t seed) { return terasort(200'000, seed); }},
      {"pi-100m", [](std::uint64_t) { return pi(100'000'000); }},
      {"pi-400m", [](std::uint64_t) { return pi(400'000'000); }},
  };
  return shapes;
}

constexpr std::size_t kSweepWorkers = 2;  // the CI setting (ci.sh --jobs 2)

struct TrialOutput {
  JobOutcome job;
  Counters layers;
  WorkloadTimes payload;
  double busy_s = 0.0;
};

Report run_paper_sweep(const Options& options) {
  Report report;
  const std::vector<Shape>& shapes = sweep_shapes();
  const harness::RunMode first_mode = exp::figure_modes().front();

  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    std::unique_ptr<wl::Workload> workload = shapes.front().make(options.seed);
    harness::World world(base_config(options, first_mode), first_mode);
    world.boot();
    report.setup_s.push_back(since(start));
  }
  report.post_boot_rss_mb = current_rss_mb();

  exp::ScenarioSpec spec;
  std::vector<std::string> labels;
  for (const Shape& shape : shapes) labels.emplace_back(shape.label);
  spec.axes = {exp::label_axis("shape", labels)};
  spec.modes = exp::figure_modes();
  spec.seeds = {options.seed};
  std::vector<TrialOutput> outputs(exp::expand_trials(spec).size());

  spec.run = [&options, &shapes, &outputs](const exp::Trial& trial) {
    const auto start = Clock::now();
    TrialOutput& out = outputs[trial.index];
    out.job.label = trial.str("shape") + "/" + trial.mode_name();
    const Shape& shape = shapes[static_cast<std::size_t>(trial.num("shape"))];
    std::unique_ptr<wl::Workload> workload =
        timed(out.payload.construct, [&] { return shape.make(options.seed); });
    std::optional<TimedWorkload> probe;
    wl::Workload* job = workload.get();
    if (options.trace) job = &probe.emplace(*workload);

    auto phase = Clock::now();
    harness::World world(base_config(options, *trial.mode), *trial.mode);
    out.layers.add("harness.world_build_s", since(phase));
    phase = Clock::now();
    world.boot();
    out.layers.add("harness.boot_s", since(phase));
    phase = Clock::now();
    const std::optional<mr::JobResult> result = world.run(*job);
    out.layers.add("harness.run_s", since(phase));

    if (!result.has_value()) {
      out.job.error = "hit the simulation deadline";
    } else if (!result->succeeded || result->killed) {
      out.job.error = "job failed or was killed";
    } else {
      out.job.ok = true;
      out.job.latency_s = result->profile.elapsed_seconds();
      out.job.digest = job->result_digest(*result);
    }
    harvest(world, out.layers);
    if (probe) out.payload.add(probe->times());
    out.busy_s = since(start);

    exp::TrialResult trial_result;
    trial_result.trial = trial;
    trial_result.ok = true;
    return trial_result;
  };

  exp::SweepOptions sweep;
  sweep.jobs = kSweepWorkers;
  const auto start = Clock::now();
  const std::vector<exp::TrialResult> results = exp::SweepRunner(sweep).run(spec);
  report.wall_s = since(start);

  double busy_s = 0.0;
  WorkloadTimes payload;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    TrialOutput& out = outputs[i];
    if (!results[i].ok) {  // the trial body threw
      out.job.ok = false;
      out.job.error = results[i].error;
    }
    report.layers.merge(out.layers);
    payload.add(out.payload);
    busy_s += out.busy_s;
    report.jobs.push_back(out.job);
  }
  report.layers.add("exp.worker_busy_frac",
                    busy_s / (static_cast<double>(kSweepWorkers) * report.wall_s));
  if (options.trace) {
    add_timer(report.layers, "workloads.construct", payload.construct);
    add_timer(report.layers, "workloads.map", payload.map);
    add_timer(report.layers, "workloads.reduce", payload.reduce);
    add_timer(report.layers, "workloads.partition", payload.partition);
    add_timer(report.layers, "workloads.digest", payload.digest);
    report.layers.add("workloads.share",
                      payload.in_run_seconds() / report.layers.values().at("harness.run_s"));
  }

  if (!options.verify) return report;
  // Reference answers come from fresh instances, one per shape, after
  // the timed sweep.
  std::vector<std::unique_ptr<wl::Workload>> fresh;
  std::vector<wl::Workload*> workloads;
  for (const Shape& shape : shapes) fresh.push_back(shape.make(options.seed));
  for (const exp::TrialResult& result : results) {
    workloads.push_back(fresh[static_cast<std::size_t>(result.trial.num("shape"))].get());
  }
  check_against_reference(report.jobs, workloads);
  return report;
}

// ---- stream workloads -------------------------------------------------

struct StreamSetup {
  harness::WorldConfig config;
  harness::RunMode mode = harness::RunMode::kHadoop;
  std::vector<wl::TenantSpec> tenants;
  harness::StreamPumpOptions pump;
};

Report run_stream(const Options& options, StreamSetup setup) {
  Report report;
  struct Completion {
    std::uint64_t digest = 0;
    wl::Workload* workload = nullptr;  // owned by the pump's job source
  };
  std::map<std::string, Completion> completed;  // by job label
  double free_slot_samples = 0.0;

  std::unique_ptr<harness::World> world;
  std::unique_ptr<harness::StreamPump> pump;
  setup.pump.on_job_complete = [&](const harness::StreamJobRecord& record,
                                   wl::Workload& workload, const mr::JobResult& result) {
    completed[record.label] = {record.succeeded ? workload.result_digest(result) : 0, &workload};
    if (harness::is_mrapid_mode(setup.mode)) {
      free_slot_samples += world->framework().pool().free_slots();
    }
  };

  for (int rep = 0; rep < kSetupReps; ++rep) {
    pump.reset();
    world.reset();
    const auto start = Clock::now();
    world = std::make_unique<harness::World>(setup.config, setup.mode);
    pump = std::make_unique<harness::StreamPump>(*world, setup.tenants, setup.pump);
    const double built = since(start);
    const auto boot = Clock::now();
    world->boot();
    report.setup_s.push_back(since(start));
    if (rep + 1 == kSetupReps) {
      report.layers.add("harness.world_build_s", built);
      report.layers.add("harness.boot_s", since(boot));
    }
  }
  report.post_boot_rss_mb = current_rss_mb();

  const auto start = Clock::now();
  const bool drained = pump->run();
  report.wall_s = since(start);
  report.layers.add("harness.run_s", report.wall_s);

  std::vector<wl::Workload*> job_workloads;
  for (const harness::StreamJobRecord& record : pump->records()) {
    JobOutcome job;
    job.label = record.label;
    job.latency_s = record.latency_s();
    job.wait_s = record.queue_wait_s();
    const auto it = completed.find(record.label);
    if (!record.completed || it == completed.end()) {
      job.error = "never reached a terminal state";
    } else if (!record.succeeded) {
      job.error = "failed or was killed";
    } else {
      job.ok = true;
      job.digest = it->second.digest;
    }
    job_workloads.push_back(it == completed.end() ? nullptr : it->second.workload);
    report.jobs.push_back(job);
  }
  if (!drained) {
    JobOutcome stuck;
    stuck.label = "stream";
    stuck.error = "did not drain before the grace period ended";
    report.jobs.push_back(stuck);
    job_workloads.push_back(nullptr);
  }
  harvest(*world, report.layers);
  if (harness::is_mrapid_mode(setup.mode) && !completed.empty()) {
    report.layers.add("mrapid.pool_free_slots",
                      free_slot_samples / static_cast<double>(completed.size()));
  }
  if (options.verify) check_against_reference(report.jobs, job_workloads);
  return report;
}

// Scales every tenant's arrival time constants by one factor so that
// exactly `jobs` arrivals fall inside `horizon` seconds, and returns the
// pump horizon that admits exactly those. Exponential draws scale
// linearly with their mean, so the factor changes the rate and nothing
// else: every seed offers the same load (the same job count over the
// same span), so host time, events and memory do not swing with how
// many jobs a seed's arrival process happens to draw. The pump's
// sources are deterministic per (spec, seed), so sources built here
// draw exactly the arrivals the pump will.
double offer_exactly(std::vector<wl::TenantSpec>& tenants, std::uint64_t seed, std::size_t jobs,
                     double horizon) {
  auto arrivals = [&] {
    std::vector<double> offsets;
    for (const wl::TenantSpec& spec : tenants) {
      wl::TenantJobSource source(spec, seed);
      for (std::size_t i = 0; i <= jobs; ++i) {
        offsets.push_back(source.next().submit_offset_seconds);
      }
    }
    std::sort(offsets.begin(), offsets.end());
    return (offsets[jobs - 1] + offsets[jobs]) / 2.0;  // between the last admitted and the next
  };
  const double scale = horizon / arrivals();
  for (wl::TenantSpec& spec : tenants) {
    spec.arrival.mean_interarrival_seconds *= scale;
    spec.arrival.mean_on_seconds *= scale;
    spec.arrival.mean_off_seconds *= scale;
    spec.arrival.diurnal_period_seconds *= scale;
  }
  return arrivals();
}

// tenant-stream: high job churn through the per-job paths (AM pool, D+
// allocation, task runner, shuffle, HDFS reads, reduce merge) on a
// 64-node cluster, well below saturation. Every job reads 2 MB (the
// interactive tenant one file, the batch tenant two, so both the
// single-map and the shuffle-merge paths run), so the tenant mix a seed
// draws does not change the payload work.
Report run_tenant_stream(const Options& options) {
  StreamSetup setup;
  setup.mode = harness::RunMode::kDPlus;
  setup.config = base_config(options, setup.mode);
  setup.config.cluster = cluster::ClusterConfig::uniform(64, 4, cluster::azure_a3());
  setup.config.framework.pool_size = 16;

  wl::TenantSpec interactive;
  interactive.name = "interactive";
  interactive.arrival.process = wl::ArrivalProcess::kPoisson;
  interactive.arrival.mean_interarrival_seconds = 4.0;
  interactive.scan_weight = 1.0;
  interactive.sort_weight = 0.0;
  interactive.numeric_weight = 0.0;
  interactive.min_files = interactive.max_files = 1;
  interactive.min_file_bytes = interactive.max_file_bytes = 2_MB;
  interactive.weight = 2.0;
  interactive.capacity_floor = 0.25;

  wl::TenantSpec batch;
  batch.name = "batch";
  batch.arrival.process = wl::ArrivalProcess::kBursty;
  batch.arrival.mean_interarrival_seconds = 6.0;
  batch.arrival.burst_factor = 4.0;
  batch.arrival.mean_on_seconds = 30.0;
  batch.arrival.mean_off_seconds = 30.0;
  batch.scan_weight = 1.0;
  batch.sort_weight = 0.0;
  batch.numeric_weight = 0.0;
  batch.min_files = batch.max_files = 2;
  batch.min_file_bytes = batch.max_file_bytes = 1_MB;

  setup.tenants = {interactive, batch};
  setup.pump.horizon_seconds = offer_exactly(setup.tenants, options.seed, 100, 200.0);
  return run_stream(options, std::move(setup));
}

// cluster-scale: a 10k-node uniform A3 cluster in Hadoop mode, so
// allocation rides NM heartbeats; one Poisson tenant of 1 MB scans.
// Heartbeat-dominated, almost no payload.
Report run_cluster_scale(const Options& options) {
  StreamSetup setup;
  setup.mode = harness::RunMode::kHadoop;
  setup.config = base_config(options, setup.mode);
  setup.config.cluster = cluster::ClusterConfig::uniform(10'000, 250, cluster::azure_a3());

  wl::TenantSpec tenant;
  tenant.name = "scan";
  tenant.arrival.process = wl::ArrivalProcess::kPoisson;
  tenant.arrival.mean_interarrival_seconds = 15.0;
  tenant.scan_weight = 1.0;
  tenant.sort_weight = 0.0;
  tenant.numeric_weight = 0.0;
  tenant.min_files = tenant.max_files = 1;
  tenant.min_file_bytes = tenant.max_file_bytes = 1_MB;

  setup.tenants = {tenant};
  setup.pump.horizon_seconds = offer_exactly(setup.tenants, options.seed, 120, 1800.0);
  setup.pump.max_running_jobs = 8;
  return run_stream(options, std::move(setup));
}

// ---- output -------------------------------------------------------------

void print_number_list(std::FILE* out, const char* key, const std::vector<double>& values) {
  std::fprintf(out, "\"%s\":[", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(out, "%s%.17g", i ? "," : "", values[i]);
  }
  std::fprintf(out, "]");
}

// FNV-1a over (label, digest) in label order: one digest per run.
std::uint64_t combined_digest(const std::vector<JobOutcome>& jobs) {
  std::map<std::string, std::uint64_t> sorted;
  for (const JobOutcome& job : jobs) sorted[job.label] = job.digest;
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](unsigned char byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const auto& [label, digest] : sorted) {
    for (const char c : label) mix(static_cast<unsigned char>(c));
    for (int byte = 0; byte < 8; ++byte) mix(static_cast<unsigned char>(digest >> (8 * byte)));
  }
  return h;
}

// Failure text can carry exception messages: keep it a valid JSON string.
std::string json_escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_report(const Options& options, const Report& report) {
  std::FILE* out = stdout;
  std::vector<double> latencies, waits;
  std::size_t failed = 0;
  std::vector<const JobOutcome*> failures;
  for (const JobOutcome& job : report.jobs) {
    if (!job.ok) {
      ++failed;
      if (failures.size() < 5) failures.push_back(&job);
      continue;
    }
    latencies.push_back(job.latency_s);
    waits.push_back(job.wait_s);
  }
  std::fprintf(out, "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"trace\":%d,",
               options.workload.c_str(), options.seed, options.trace ? 1 : 0);
  print_number_list(out, "setup_s", report.setup_s);
  std::fprintf(out, ",\"wall_s\":%.17g,\"peak_rss_mb\":%.17g,\"post_boot_rss_mb\":%.17g,",
               report.wall_s, peak_rss_mb(), report.post_boot_rss_mb);
  std::fprintf(out, "\"attempted\":%zu,\"failed\":%zu,\"failures\":[", report.jobs.size(), failed);
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i ? "," : "",
                 json_escaped(failures[i]->label + ": " + failures[i]->error).c_str());
  }
  std::fprintf(out, "],\"digest\":\"%016" PRIx64 "\",", combined_digest(report.jobs));
  print_number_list(out, "job_latency_s", latencies);
  std::fprintf(out, ",");
  print_number_list(out, "stream_wait_s", waits);
  std::fprintf(out, ",\"layers\":{");
  bool first = true;
  for (const auto& [name, value] : report.layers.values()) {
    std::fprintf(out, "%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::fprintf(out, "}}\n");
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload paper-sweep|tenant-stream|cluster-scale\n"
               "                        --seed N [--trace] [--verify] [--inject-bug drop-shard]\n",
               message);
  return 2;
}

int run(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      options.seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return usage("--seed takes a whole number");
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--verify") {
      options.verify = true;
    } else if (arg == "--inject-bug" && has_value) {
      if (std::string(argv[++i]) != "drop-shard") return usage("unknown --inject-bug");
      options.injected_bug = mr::InjectedBug::kDropShard;
    } else {
      return usage(("unexpected argument " + arg).c_str());
    }
  }
  if (options.trace) register_timed_schedulers();

  Report report;
  if (options.workload == "paper-sweep") {
    report = run_paper_sweep(options);
  } else if (options.workload == "tenant-stream") {
    report = run_tenant_stream(options);
  } else if (options.workload == "cluster-scale") {
    report = run_cluster_scale(options);
  } else {
    return usage("unknown --workload");
  }
  print_report(options, report);
  return 0;
}

}  // namespace
}  // namespace mrapid::perfbench

int main(int argc, char** argv) { return mrapid::perfbench::run(argc, argv); }
