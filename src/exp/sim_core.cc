#include "exp/sim_core.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/azure.h"
#include "cluster/cluster.h"
#include "cluster/network.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "exp/runner.h"
#include "hdfs/hdfs.h"
#include "hdfs/placement.h"
#include "harness/stream_pump.h"
#include "harness/world.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/task_runner.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "workloads/jobstream.h"
#include "workloads/wordcount.h"

namespace mrapid::exp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Pseudo-random but deterministic microsecond offsets; cheap enough to
// vanish next to the queue operations being measured.
constexpr std::uint64_t spread(std::uint64_t i) { return (i * 7919) & 0xFFFF; }

// Every production schedule_* site passes a label, and the hottest
// ones (bandwidth :finish, pool :grant) pair a resource name with a
// literal suffix — so the measured loops do the same, as the two-pointer
// EventLabel the queue stores.
const std::string kResourceName = "node03:disk-rd";

sim::EventLabel make_label() { return sim::EventLabel(kResourceName, ":finish"); }

SimCoreResult run_churn(sim::EventQueue& queue, std::uint64_t events, std::size_t window) {
  SimCoreResult result;
  const auto start = Clock::now();
  std::uint64_t pushed = 0;
  for (; pushed < window; ++pushed) {
    queue.push(sim::SimTime::from_micros(spread(pushed)), [] {}, make_label());
  }
  std::uint64_t fired = 0;
  while (fired < events) {
    auto event = queue.pop();
    ++fired;
    queue.push(event.time + sim::SimDuration::micros(1 + spread(pushed++)), [] {},
               make_label());
  }
  while (!queue.empty()) queue.pop();
  result.wall_seconds = seconds_since(start);
  result.events = fired;
  result.events_per_sec = static_cast<double>(fired) / result.wall_seconds;
  return result;
}

SimCoreResult run_cancel_heavy(sim::EventQueue& queue, std::uint64_t steps) {
  SimCoreResult result;
  const auto start = Clock::now();
  std::uint64_t now_us = 0;
  std::uint64_t fired = 0, cancelled = 0, pushed = 0;
  auto completion = queue.push(sim::SimTime::from_micros(10'000), [] {}, make_label());
  ++pushed;
  for (std::uint64_t i = 0; i < steps; ++i) {
    now_us += 10;
    const sim::SimTime now = sim::SimTime::from_micros(now_us);
    while (!queue.empty() && queue.next_time() <= now) {
      queue.pop();
      ++fired;
    }
    // The replan pattern: the outstanding completion estimate is
    // discarded and rescheduled on every membership change.
    if (queue.cancel(completion)) ++cancelled;
    completion =
        queue.push(sim::SimTime::from_micros(now_us + 10'000 + spread(i)), [] {}, make_label());
    ++pushed;
    if ((i & 7) == 0) {
      queue.push(sim::SimTime::from_micros(now_us + 40), [] {}, "nm:heartbeat");  // will fire
      ++pushed;
    }
  }
  while (!queue.empty()) {
    queue.pop();
    ++fired;
  }
  result.wall_seconds = seconds_since(start);
  result.events = pushed + cancelled + fired;  // total queue operations
  result.cancelled = cancelled;
  result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;
  return result;
}

// Wall-clock noise (CPU frequency scaling, scheduler preemption,
// noisy neighbours on shared hosts) easily swings a single run by
// 10-20%, sometimes for seconds at a time. The queue microbenchmarks
// therefore keep the fastest of several repetitions, the standard
// noise-resistant cost estimate.
constexpr int kReps = 5;

template <typename RunFn>
SimCoreResult best_of(RunFn run) {
  SimCoreResult best = run();
  for (int i = 1; i < kReps; ++i) {
    const SimCoreResult next = run();
    if (next.events_per_sec > best.events_per_sec) best = next;
  }
  return best;
}

// Folds one simulation's engine counters, plus the shuffle counters of
// a run that drove the fetch engine, into `result`: cancels and
// shuffle counts add up across runs, heap and slab sizes keep the
// peak.
void add_counters(SimCoreResult& result, const sim::Simulation& sim,
                  const mr::ShuffleStats& shuffle) {
  const sim::EventQueue::Stats& queue = sim.queue_stats();
  const sim::TimerWheel::Stats& wheel = sim.wheel_stats();
  result.cancelled += queue.cancelled + wheel.cancelled;
  result.heap_peak = std::max(result.heap_peak, queue.heap_peak);
  result.slab_slots = std::max({result.slab_slots, queue.slab_capacity, wheel.slab_capacity});
  result.fetches += shuffle.fetches;
  result.coalesced_flows += shuffle.coalesced_flows;
  result.partition_calls += shuffle.partition_calls;
}

}  // namespace

SimCoreResult sim_core_event_churn(std::uint64_t events, std::size_t window) {
  return best_of([&] {
    sim::EventQueue queue;
    SimCoreResult result = run_churn(queue, events, window);
    result.cancelled = queue.stats().cancelled;
    result.heap_peak = queue.stats().heap_peak;
    result.slab_slots = queue.stats().slab_capacity;
    return result;
  });
}

SimCoreResult sim_core_cancel_heavy(std::uint64_t steps) {
  return best_of([&] {
    sim::EventQueue queue;
    SimCoreResult result = run_cancel_heavy(queue, steps);
    result.heap_peak = queue.stats().heap_peak;
    result.slab_slots = queue.stats().slab_capacity;
    return result;
  });
}

namespace {

// One cluster-scale stream run.
SimCoreResult run_cluster_scale(std::size_t nodes, double horizon_s) {
  harness::WorldConfig config;
  // Uniform A3 machines, ~40 per rack — a plausible datacenter shape
  // that keeps rack-locality code exercised without dominating.
  config.cluster = cluster::ClusterConfig::uniform(
      nodes, std::max<std::size_t>(std::size_t{1}, nodes / 40), cluster::azure_a3());
  config.deadline = sim::SimDuration::seconds(horizon_s + 3600.0);
  harness::World world(config, harness::RunMode::kHadoop);

  wl::TenantSpec tenant;
  tenant.name = "stream";
  tenant.arrival.process = wl::ArrivalProcess::kPoisson;
  tenant.arrival.mean_interarrival_seconds = 6.0;
  tenant.scan_weight = 1.0;
  tenant.sort_weight = 0.0;
  tenant.numeric_weight = 0.0;
  tenant.min_files = 1;
  tenant.max_files = 2;
  tenant.min_file_bytes = 1_MB;
  tenant.max_file_bytes = 2_MB;

  harness::StreamPumpOptions pump_options;
  pump_options.horizon_seconds = horizon_s;
  pump_options.max_running_jobs = 8;
  harness::StreamPump pump(world, {tenant}, pump_options);

  const auto start = Clock::now();
  if (!pump.run()) {
    throw TrialFailure("sim_core cluster-scale stream did not drain");
  }
  SimCoreResult result;
  result.wall_seconds = seconds_since(start);
  // The dominant event population is NM heartbeats, which live in the
  // timer wheel — count dispatches, not just queue pops.
  result.events = world.simulation().processed_events();
  result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;
  add_counters(result, world.simulation(), world.shuffle_stats());
  return result;
}

// One placement/shuffle run. Like event-churn and cancel-heavy, this
// drives the engine pair directly — a scripted mix of replica draws,
// shuffle-pipeline flow starts, cancels and fluid advances on a
// datacenter-shaped fabric — because in an end-to-end job stream the
// draws and replans are a few percent of the event population and the
// rate would measure Amdahl's bystanders, not the engines.
SimCoreResult run_placement_shuffle(std::size_t nodes, std::size_t iterations) {
  const std::size_t racks = std::max<std::size_t>(std::size_t{1}, nodes / 40);
  std::vector<std::vector<cluster::NodeId>> rack_layout(racks);
  for (std::size_t n = 0; n < nodes; ++n) {
    rack_layout[n % racks].push_back(static_cast<cluster::NodeId>(n));
  }
  cluster::Topology topology(std::move(rack_layout));

  sim::Simulation sim(2024);
  cluster::Network network(sim, topology,
                           std::vector<Rate>(nodes, Rate::gbit_per_sec(1)),
                           cluster::NetworkConfig{});

  std::vector<cluster::NodeId> datanodes(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    datanodes[n] = static_cast<cluster::NodeId>(n);
  }
  hdfs::BlockPlacementPolicy policy(topology, std::move(datanodes),
                                    RngStream(99, "exp.sim_core.placement"));

  // Scripted block writes: draw a replica set (external client half the
  // time, a datanode writer otherwise), push the block down a
  // writer->r1->r2->r3 pipeline of block-sized flows, retire flows via
  // random cancels plus periodic fluid advances, and keep the live flow
  // population bounded so the waterfill depth reaches a steady state.
  RngStream script(4242, "exp.sim_core.pshuffle");
  std::vector<cluster::Network::FlowId> live;
  std::int64_t now_us = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    const cluster::NodeId writer =
        script.next_double() < 0.5
            ? cluster::kInvalidNode
            : static_cast<cluster::NodeId>(script.next_int(0, static_cast<int>(nodes) - 1));
    const auto replicas = policy.choose(writer, /*replication=*/3);
    cluster::NodeId prev = writer == cluster::kInvalidNode && !replicas.empty()
                               ? replicas.front()
                               : writer;
    for (cluster::NodeId r : replicas) {
      const Bytes bytes = static_cast<Bytes>(script.next_int(128, 512)) * 1024;
      live.push_back(network.start_flow(prev, r, bytes, [](sim::SimDuration) {}));
      prev = r;
    }
    std::size_t cancels = !live.empty() && script.next_double() < 0.25 ? 1 : 0;
    cancels += live.size() > 256 ? live.size() - 256 : 0;
    for (; cancels > 0 && !live.empty(); --cancels) {
      const std::size_t victim =
          static_cast<std::size_t>(script.next_int(0, static_cast<int>(live.size()) - 1));
      network.cancel(live[victim]);  // false for already-finished ids: fine
      live[victim] = live.back();
      live.pop_back();
    }
    if ((i & 15) == 0) {
      now_us += 50'000;
      sim.run_until(sim::SimTime::from_micros(now_us));
    }
  }
  SimCoreResult result;
  result.wall_seconds = seconds_since(start);
  result.events = policy.draws() + network.stats().replans;
  result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;
  add_counters(result, sim, mr::ShuffleStats{});
  return result;
}

// The job-scale workload logic: a hash partitioner over a band of 16
// reducers. Each map's band starts at a stride-37 offset (pairs of
// maps share a band, mirroring their shared source node below), and
// every record is hashed into the band — so partition_map_output costs
// what a real hash partitioner costs (one mix + bucket add per record,
// plus the R-entry shard vector), which the registry pays once per
// map. The map index rides in on outcome.output_records (execute_map
// is never called; the bench fabricates map results directly).
class JobScaleLogic final : public mr::JobLogic {
 public:
  static constexpr int kBand = 16;
  static constexpr std::int64_t kRecordsPerMap = 2048;
  static constexpr Bytes kRecordBytes = 64;

  JobScaleLogic() : payload_(std::make_shared<int>(0)) {}

  std::string name() const override { return "job-scale-shuffle"; }
  mr::MapOutcome execute_map(const mr::InputSplit&) const override { return {}; }

  mr::ReduceOutcome execute_reduce(std::span<const mr::MapOutcome>) const override {
    mr::ReduceOutcome out;
    out.output_bytes = 1_KB;
    out.core_seconds = 0.0005;
    return out;
  }

  std::vector<mr::MapOutcome> partition_map_output(const mr::MapOutcome& outcome,
                                                   int reducers) const override {
    std::vector<mr::MapOutcome> shards(static_cast<std::size_t>(reducers));
    const auto m = static_cast<std::uint64_t>(outcome.output_records);
    const auto band_start =
        static_cast<std::size_t>(((m / 2) * 37) % static_cast<std::uint64_t>(reducers));
    for (std::int64_t rec = 0; rec < kRecordsPerMap; ++rec) {
      std::uint64_t h =
          (m * static_cast<std::uint64_t>(kRecordsPerMap) + static_cast<std::uint64_t>(rec)) *
          0x9E3779B97F4A7C15ull;
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDull;
      h ^= h >> 33;
      const std::size_t r =
          (band_start + static_cast<std::size_t>(h % kBand)) % static_cast<std::size_t>(reducers);
      shards[r].output_bytes += kRecordBytes;
      shards[r].output_records += 1;
    }
    for (auto& shard : shards) {
      if (shard.output_bytes > 0) shard.data = payload_;
    }
    return shards;
  }

 private:
  std::shared_ptr<const void> payload_;  // stands in for the in-memory segment
};

// One job-scale run: the fabricated map results are fed to every
// reducer; reducers are driven one at a time with a fluid drain
// between them so the live flow population stays bounded (the
// waterfill depth, not the fetch engine, would otherwise dominate).
SimCoreResult run_job_scale(std::size_t nodes, int maps, int reducers) {
  sim::Simulation sim(2024);
  cluster::Cluster cluster(
      sim, cluster::ClusterConfig::uniform(
               nodes, std::max<std::size_t>(std::size_t{1}, nodes / 40), cluster::azure_a3()));
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});

  JobScaleLogic logic;
  mr::JobSpec spec;
  spec.name = "job-scale";
  spec.logic = &logic;
  spec.num_reducers = reducers;

  mr::MRConfig config;
  mr::ShuffleStats stats;
  config.shuffle_stats = &stats;
  mr::TaskEnv env{sim, cluster, hdfs, config, nullptr};

  // Fabricated map results: map m lives on node (m/2) % nodes — pairs
  // of maps share a source, so a reducer's batch feed has runs of two
  // same-source fetches for the coalescer — with spilled (on-disk)
  // output so every remote fetch joins a disk and a network leg.
  std::vector<mr::MapTaskResult> results(static_cast<std::size_t>(maps));
  for (int m = 0; m < maps; ++m) {
    mr::MapTaskResult& result = results[static_cast<std::size_t>(m)];
    result.profile.index = m;
    result.profile.node =
        static_cast<cluster::NodeId>(static_cast<std::size_t>(m / 2) % nodes);
    result.profile.output_in_memory = false;
    result.outcome.output_bytes = JobScaleLogic::kRecordsPerMap * JobScaleLogic::kRecordBytes;
    result.outcome.output_records = m;  // smuggled map index (see JobScaleLogic)
  }

  int done = 0;
  std::vector<std::unique_ptr<mr::ReduceRunner>> runners;
  runners.reserve(static_cast<std::size_t>(reducers));

  const auto start = Clock::now();
  // The AM-side half of the shuffle: partition each output once, on
  // announcement — on the measured clock, exactly as an AM would.
  mr::MapOutputRegistry registry(spec, maps, &stats);
  for (const mr::MapTaskResult& result : results) {
    registry.announce(result.profile.index, result.outcome);
  }
  std::int64_t now_us = 0;
  for (int r = 0; r < reducers; ++r) {
    auto runner = std::make_unique<mr::ReduceRunner>(
        env, spec, registry, r, "/bench/job-scale/part-" + std::to_string(r),
        static_cast<cluster::NodeId>(static_cast<std::size_t>(r) % nodes),
        [&done](mr::TaskProfile, mr::ReduceOutcome) { ++done; });
    runner->start();
    runner->on_map_outputs(results);
    runners.push_back(std::move(runner));
    // Drain this reducer's fetches (and most of its flows) before the
    // next one starts: ~60 live legs at a time, not ~30k.
    now_us += 50'000;
    sim.run_until(sim::SimTime::from_micros(now_us));
  }
  sim.run_until(sim::SimTime::from_micros(now_us) + sim::SimDuration::seconds(3600));
  if (done != reducers) throw TrialFailure("sim_core job-scale did not finish every reducer");

  SimCoreResult result;
  result.wall_seconds = seconds_since(start);
  // Every reducer fetches every map: M·R fetches.
  result.events = stats.fetches;
  result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;
  add_counters(result, sim, stats);
  return result;
}

}  // namespace

SimCoreResult sim_core_job_scale(bool smoke) {
  const std::size_t nodes = smoke ? 128 : 1'000;
  const int maps = smoke ? 256 : 2'000;
  const int reducers = smoke ? 64 : 512;
  return run_job_scale(nodes, maps, reducers);
}

SimCoreResult sim_core_placement_shuffle(bool smoke) {
  const std::size_t nodes = smoke ? 256 : 10'000;
  const std::size_t iterations = smoke ? 4'000 : 20'000;
  return run_placement_shuffle(nodes, iterations);
}

SimCoreResult sim_core_cluster_scale(bool smoke) {
  const std::size_t nodes = smoke ? 256 : 10'000;
  const double horizon_s = smoke ? 30.0 : 120.0;
  return run_cluster_scale(nodes, horizon_s);
}

SimCoreResult sim_core_wordcount_sweep(bool smoke) {
  wl::WordCountParams params;
  params.num_files = smoke ? 2 : 6;
  params.bytes_per_file = smoke ? 256 * 1024 : 2 * 1024 * 1024;
  wl::WordCount wc(params);

  const harness::RunMode modes[] = {harness::RunMode::kHadoop, harness::RunMode::kUber,
                                    harness::RunMode::kDPlus, harness::RunMode::kUPlus};
  SimCoreResult result;
  const auto start = Clock::now();
  for (harness::RunMode mode : modes) {
    harness::WorldConfig config;
    harness::World world(config, mode);
    world.boot();
    auto run = world.run(wc);
    if (!run.has_value() || !run->succeeded) {
      throw TrialFailure("sim_core wordcount-sweep run failed");
    }
    // Heartbeats dispatch from the timer wheel, so count all
    // dispatches, not just queue pops.
    result.events += world.simulation().processed_events();
    add_counters(result, world.simulation(), world.shuffle_stats());
  }
  result.wall_seconds = seconds_since(start);
  result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;
  return result;
}

}  // namespace mrapid::exp
