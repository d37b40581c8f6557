// Full-stack differential test of heartbeat elision. A parked NM beat
// (yarn/resource_manager.h) is counted instead of dispatched, on the
// promise that it would have changed nothing. Every case here runs
// twice on fresh worlds: once under Tracer(kTraceAll), whose heartbeat
// category keeps the periodic lane awake so every beat is dispatched
// and recorded, and once under kTraceAll without kHeartbeat, where
// idle beats are elided. With the heartbeat lines dropped from the
// first trace, the two canonical traces must be byte-identical, and
// the processed-event counts and result digests must be equal.
//
// Cases: the fuzz corpus (seeds 0..24, single jobs and tenant streams,
// all four modes), every registered scheduling policy in all four
// modes on a small stream, and every fault kind in all four modes with
// liveness tracking on (expiry, rejoin and blacklisting flip node
// membership, which must reach the scheduler at the same beat), plus
// one capped Hadoop-mode scan stream on a 256-node cluster.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <ostream>
#include <memory>
#include <string>
#include <vector>

#include "check/scenario.h"
#include "cluster/azure.h"
#include "common/units.h"
#include "exp/workload_factory.h"
#include "harness/fault.h"
#include "harness/stream_pump.h"
#include "harness/world.h"
#include "mrapid/scheduler_registry.h"
#include "sim/trace.h"

namespace mrapid {
namespace harness {
// Readable parameter values in test names and failure messages.
void PrintTo(FaultKind kind, std::ostream* os) { *os << fault_kind_name(kind); }
}  // namespace harness

namespace {

constexpr std::uint32_t kAllButBeats =
    sim::kTraceAll & ~static_cast<std::uint32_t>(sim::TraceCategory::kHeartbeat);

// What one traced run leaves behind.
struct Outcome {
  std::string canonical;  // without heartbeat lines
  std::size_t beat_lines = 0;
  std::uint64_t events = 0;
  std::map<std::string, std::uint64_t> digests;  // job label -> result digest
  sim::Simulation::TimerStats lane;
};

Outcome finish(harness::World& world, const sim::Tracer& tracer) {
  Outcome out;
  std::vector<sim::TraceEvent> kept;
  for (const sim::TraceEvent& event : tracer.events()) {
    if (event.category == sim::TraceCategory::kHeartbeat) {
      ++out.beat_lines;
    } else {
      kept.push_back(event);
    }
  }
  out.canonical = sim::canonical_text(kept);
  out.events = world.simulation().processed_events();
  out.lane = world.simulation().wheel_stats();
  return out;
}

Outcome run_job(const harness::WorldConfig& config, harness::RunMode mode,
                wl::Workload& workload, int reducers, std::uint32_t mask) {
  harness::World world(config, mode);
  sim::Tracer tracer(mask);
  world.attach_tracer(tracer);
  const auto result =
      world.run(workload, [reducers](mr::JobSpec& spec) { spec.num_reducers = reducers; });
  Outcome out = finish(world, tracer);
  if (result.has_value() && result->succeeded && !result->killed) {
    out.digests["job"] = workload.result_digest(*result);
  }
  return out;
}

Outcome run_stream(const harness::WorldConfig& config, harness::RunMode mode,
                   const std::vector<wl::TenantSpec>& tenants, double horizon_s,
                   std::uint32_t mask, int max_running_jobs = 0) {
  harness::World world(config, mode);
  sim::Tracer tracer(mask);
  world.attach_tracer(tracer);
  std::map<std::string, std::uint64_t> digests;
  harness::StreamPumpOptions options;
  options.horizon_seconds = horizon_s;
  options.max_running_jobs = max_running_jobs;
  options.on_job_complete = [&digests](const harness::StreamJobRecord& record,
                                       wl::Workload& workload, const mr::JobResult& result) {
    if (record.succeeded) digests[record.label] = workload.result_digest(result);
  };
  harness::StreamPump pump(world, tenants, options);
  EXPECT_TRUE(pump.run());
  Outcome out = finish(world, tracer);
  out.digests = std::move(digests);
  return out;
}

// Runs `run(mask)` with every beat materialised and with idle beats
// elided, and holds the two to each other. Returns the elided run.
template <typename Run>
Outcome expect_same(const std::string& label, Run run) {
  const Outcome all = run(sim::kTraceAll);
  const Outcome elided = run(kAllButBeats);
  EXPECT_EQ(all.lane.elided, 0u) << label;
  // Every dispatched lane beat is traced; a beat that ends a pause is a
  // queue event and is traced too.
  EXPECT_GE(all.beat_lines, all.lane.fired) << label;
  EXPECT_EQ(elided.beat_lines, 0u) << label;
  EXPECT_EQ(elided.lane.fired + elided.lane.elided, all.lane.fired) << label;
  EXPECT_EQ(elided.events, all.events) << label;
  EXPECT_EQ(elided.digests, all.digests) << label;
  EXPECT_FALSE(all.digests.empty()) << label;
  if (elided.canonical != all.canonical) {
    // Point at the first differing line rather than dumping both.
    std::size_t at = 0;
    while (at < all.canonical.size() && at < elided.canonical.size() &&
           all.canonical[at] == elided.canonical[at]) {
      ++at;
    }
    const std::size_t line_start = all.canonical.rfind('\n', at) + 1;
    ADD_FAILURE() << label << ": traces diverge at\n  materialised: "
                  << all.canonical.substr(line_start, all.canonical.find('\n', at) - line_start)
                  << "\n  elided:       "
                  << elided.canonical.substr(line_start,
                                             elided.canonical.find('\n', at) - line_start);
  }
  return elided;
}

// ---- the fuzz corpus ------------------------------------------------

class ElisionFuzzCorpus : public ::testing::TestWithParam<int> {};

TEST_P(ElisionFuzzCorpus, MatchesMaterializedBeats) {
  const check::FuzzScenario scenario =
      check::generate_scenario(static_cast<std::uint64_t>(GetParam()));
  const harness::WorldConfig config = check::world_config(scenario);
  std::uint64_t elided = 0;
  for (harness::RunMode mode : exp::figure_modes()) {
    const std::string label =
        "seed " + std::to_string(scenario.seed) + " " + harness::run_mode_name(mode);
    if (check::is_stream(scenario)) {
      const auto tenants = check::make_tenant_specs(scenario);
      const double horizon = static_cast<double>(scenario.stream_horizon_ms) / 1000.0;
      elided += expect_same(label, [&](std::uint32_t mask) {
                  return run_stream(config, mode, tenants, horizon, mask);
                }).lane.elided;
    } else {
      elided += expect_same(label, [&](std::uint32_t mask) {
                  const auto workload = check::make_workload(scenario);
                  return run_job(config, mode, *workload, scenario.reducers, mask);
                }).lane.elided;
    }
  }
  EXPECT_GT(elided, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElisionFuzzCorpus, ::testing::Range(0, 25));

// ---- every policy on a small stream ---------------------------------

wl::TenantSpec small_tenant() {
  wl::TenantSpec tenant;
  tenant.name = "mix";
  tenant.arrival.process = wl::ArrivalProcess::kPoisson;
  tenant.arrival.mean_interarrival_seconds = 5.0;
  tenant.scan_weight = 0.6;
  tenant.sort_weight = 0.3;
  tenant.numeric_weight = 0.1;
  tenant.min_files = 1;
  tenant.max_files = 3;
  tenant.min_file_bytes = 128_KB;
  tenant.max_file_bytes = 512_KB;
  return tenant;
}

class ElisionPolicies : public ::testing::TestWithParam<std::string> {};

TEST_P(ElisionPolicies, MatchesMaterializedBeats) {
  harness::WorldConfig config;
  config.log_level = LogLevel::kError;
  config.scheduler = GetParam();
  for (harness::RunMode mode : exp::figure_modes()) {
    const std::string label = GetParam() + " " + harness::run_mode_name(mode);
    const Outcome elided = expect_same(label, [&](std::uint32_t mask) {
      return run_stream(config, mode, {small_tenant()}, 40.0, mask);
    });
    EXPECT_GT(elided.lane.elided, 0u) << label;
  }
}

std::string param_name(std::string name) {
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Registry, ElisionPolicies,
                         ::testing::ValuesIn(core::SchedulerRegistry::instance().names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return param_name(info.param);
                         });

// ---- every fault kind, liveness tracking on -------------------------

class ElisionFaults : public ::testing::TestWithParam<harness::FaultKind> {};

TEST_P(ElisionFaults, MatchesMaterializedBeats) {
  const harness::FaultKind kind = GetParam();
  harness::WorldConfig config;
  config.log_level = LogLevel::kError;
  config.yarn.nm_expiry = sim::SimDuration::seconds(3.0);
  config.yarn.node_blacklist_threshold = 2;
  // Two strikes on one node while the stream runs: a heartbeat loss
  // longer than the expiry expires the node, it rejoins when the loss
  // ends, and the second expiry blacklists it.
  for (const double at : {2.0, 9.0}) {
    harness::FaultSpec spec;
    spec.kind = kind;
    spec.node = 2;
    spec.at = sim::SimDuration::seconds(at);
    spec.duration = sim::SimDuration::seconds(6.0);
    config.faults.events.push_back(spec);
  }
  for (harness::RunMode mode : exp::figure_modes()) {
    const std::string label =
        std::string(harness::fault_kind_name(kind)) + " " + harness::run_mode_name(mode);
    const Outcome elided = expect_same(label, [&](std::uint32_t mask) {
      return run_stream(config, mode, {small_tenant()}, 30.0, mask);
    });
    EXPECT_GT(elided.lane.elided, 0u) << label;
    if (kind == harness::FaultKind::kHeartbeatLoss) {
      for (const char* milestone : {"node.expired", "node.rejoined", "node.blacklisted"}) {
        EXPECT_NE(elided.canonical.find(milestone), std::string::npos) << label << " " << milestone;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ElisionFaults,
                         ::testing::Values(harness::FaultKind::kNodeCrash,
                                           harness::FaultKind::kHeartbeatLoss,
                                           harness::FaultKind::kStraggler,
                                           harness::FaultKind::kAmKill),
                         [](const ::testing::TestParamInfo<harness::FaultKind>& info) {
                           return param_name(harness::fault_kind_name(info.param));
                         });

// ---- a large cluster under a capped stream ---------------------------

// The shape of perfbench's cluster-scale workload, shrunk to 256 nodes:
// mostly idle NMs beating into the NodeTable-backed scheduler while at
// most eight scans run, so nearly every beat is parked.
TEST(ElisionLargeCluster, MatchesMaterializedBeats) {
  harness::WorldConfig config;
  config.log_level = LogLevel::kError;
  config.cluster = cluster::ClusterConfig::uniform(256, 6, cluster::azure_a3());
  constexpr double kHorizon = 30.0;
  config.deadline = sim::SimDuration::seconds(kHorizon + 3600.0);

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

  const Outcome elided = expect_same("256 nodes hadoop", [&](std::uint32_t mask) {
    return run_stream(config, harness::RunMode::kHadoop, {tenant}, kHorizon, mask,
                      /*max_running_jobs=*/8);
  });
  EXPECT_GT(elided.lane.elided, 0u);
}

}  // namespace
}  // namespace mrapid
