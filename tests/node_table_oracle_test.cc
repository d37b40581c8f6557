// The from-scratch-scan oracle for yarn::NodeTable.
//
// The table's contract is exact equivalence: every query must answer
// what an O(nodes) scan of the raw states answers. Two attack layers:
//
//   1. A randomized mutation fuzz drives a table through funnel calls;
//      after EVERY event audit() must be clean, and schedulable /
//      aggregates / first_fit answers must match a from-scratch
//      reference scan, including under membership churn (deaths,
//      rejoins, blacklists) and an EASY-style skip node.
//
//   2. Full worlds under every registry policy run a faulted job with
//      a periodic in-sim audit hook, so the table is cross-checked
//      mid-flight against the very mutation sequence real RM traffic
//      produces (allocation, release, pending-release heartbeats,
//      node expiry, blacklisting, rejoin).
//
// Plus the bounded-visit guarantee: on a large cluster the incremental
// structures must keep per-event visited-node counts near-constant,
// asserted from NodeTable::Stats, not eyeballed.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/azure.h"
#include "common/rng.h"
#include "harness/world.h"
#include "mrapid/scheduler_registry.h"
#include "workloads/wordcount.h"
#include "yarn/node_table.h"

namespace mrapid {
namespace {

using yarn::NodeState;
using yarn::NodeTable;
using yarn::Resource;

// ---- layer 1: randomized mutation fuzz ----------------------------

// From-scratch answers computed off the raw states, the scans the
// table must agree with, implemented independently here.
std::vector<cluster::NodeId> reference_schedulable(const std::vector<NodeState>& states) {
  std::vector<cluster::NodeId> ids;
  for (const NodeState& node : states) {
    if (node.schedulable()) ids.push_back(node.id);
  }
  return ids;
}

NodeTable::Aggregates reference_aggregates(const std::vector<NodeState>& states) {
  NodeTable::Aggregates agg;
  for (const NodeState& node : states) {
    if (!node.schedulable()) continue;
    agg.total_vcores += node.capacity.vcores;
    agg.used_vcores += node.used.vcores;
    agg.total_mem += node.capacity.memory_mb;
    agg.used_mem += node.used.memory_mb;
  }
  return agg;
}

cluster::NodeId reference_first_fit(const std::vector<NodeState>& states, Resource need,
                                    cluster::NodeId skip) {
  for (const NodeState& node : states) {
    if (node.id == skip || !node.schedulable()) continue;
    if (need.fits_in(node.available())) return node.id;
  }
  return cluster::kInvalidNode;
}

std::vector<cluster::NodeId> ids_of(const std::vector<NodeState*>& nodes) {
  std::vector<cluster::NodeId> ids;
  ids.reserve(nodes.size());
  for (const NodeState* node : nodes) ids.push_back(node->id);
  return ids;
}

// Checks the table against the reference scans (and audit()).
void expect_matches_reference(NodeTable& table, Resource need, cluster::NodeId skip) {
  const std::vector<std::string> findings = table.audit();
  EXPECT_TRUE(findings.empty()) << findings.front();
  EXPECT_EQ(ids_of(table.schedulable()), reference_schedulable(table.states()));

  const NodeTable::Aggregates agg = table.aggregates();
  const NodeTable::Aggregates ref = reference_aggregates(table.states());
  EXPECT_EQ(agg.total_vcores, ref.total_vcores);
  EXPECT_EQ(agg.used_vcores, ref.used_vcores);
  EXPECT_EQ(agg.total_mem, ref.total_mem);
  EXPECT_EQ(agg.used_mem, ref.used_mem);
  EXPECT_EQ(table.schedulable_capacity_vcores(), ref.total_vcores);

  NodeState* fit = table.first_fit(need, skip);
  EXPECT_EQ(fit != nullptr ? fit->id : cluster::kInvalidNode,
            reference_first_fit(table.states(), need, skip))
      << "need=" << need.to_string() << " skip=" << skip;
}

TEST(NodeTableOracle, FuzzedMutationsMatchFromScratchScanAfterEveryEvent) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    RngStream rng(0xAB1E, "node-table-oracle/" + std::to_string(seed));

    NodeTable table;
    const int node_count = static_cast<int>(rng.next_int(1, 48));
    for (int i = 0; i < node_count; ++i) {
      NodeState state;
      state.id = i;
      state.capacity =
          Resource{static_cast<int>(rng.next_int(1, 16)), rng.next_int(1, 16) * 1024};
      table.add_node(state);
    }

    const int ops = 400;
    for (int op = 0; op < ops; ++op) {
      const auto index = static_cast<std::size_t>(rng.next_int(0, node_count - 1));
      NodeState& a = table.states()[index];
      switch (rng.next_int(0, 7)) {
        case 0: {  // allocate: charge something that fits (the RM invariant)
          const Resource avail = a.available();
          if (avail.vcores < 1 || avail.memory_mb < 512) break;
          const Resource amount{static_cast<int>(rng.next_int(1, avail.vcores)),
                                rng.next_int(1, avail.memory_mb / 512) * 512};
          table.charge(a, amount);
          break;
        }
        case 1: {  // launch failure: uncharge part of what's charged
          const Resource chargeable = a.used - a.pending_release;
          if (chargeable.vcores < 1 || chargeable.memory_mb < 512) break;
          const Resource amount{static_cast<int>(rng.next_int(1, chargeable.vcores)),
                                rng.next_int(1, chargeable.memory_mb / 512) * 512};
          table.uncharge(a, amount);
          break;
        }
        case 2: {  // release: park resources until the next heartbeat
          const Resource chargeable = a.used - a.pending_release;
          if (chargeable.vcores < 1 || chargeable.memory_mb < 512) break;
          const Resource amount{static_cast<int>(rng.next_int(1, chargeable.vcores)),
                                rng.next_int(1, chargeable.memory_mb / 512) * 512};
          table.add_pending_release(a, amount);
          break;
        }
        case 3:  // the node's heartbeat applies parked releases
          table.apply_pending_release(a);
          break;
        case 4:  // expiry / rejoin wipe
          table.void_resources(a);
          break;
        case 5: {  // liveness flip
          const bool alive = !a.alive;
          table.set_alive(a, alive);
          break;
        }
        case 6: {  // blacklist flip
          const bool blacklisted = !a.blacklisted;
          table.set_blacklisted(a, blacklisted);
          break;
        }
        default:
          table.record_failure(a);
          break;
      }

      const Resource need{static_cast<int>(rng.next_int(0, 8)), rng.next_int(0, 8) * 1024};
      const cluster::NodeId skip =
          rng.next_int(0, 3) == 0 ? static_cast<cluster::NodeId>(rng.next_int(0, node_count - 1))
                                  : cluster::kInvalidNode;
      expect_matches_reference(table, need, skip);
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "divergence at seed " << seed << " op " << op;
      }
    }
  }
}

// ---- layer 2: every registry policy, audited mid-flight -----------

// Runs one faulted wordcount under `policy` with a recurring in-sim
// audit: every 500ms the RM's table is cross-checked from scratch
// while real allocation/release/expiry traffic mutates it. The crash
// and the 3s expiry exercise membership churn (death, blacklist,
// requeue) mid-job.
void run_policy_with_audit(const std::string& policy) {
  harness::WorldConfig config;
  config.scheduler = policy;
  config.yarn.nm_expiry = sim::SimDuration::seconds(3.0);
  harness::FaultSpec crash;
  crash.kind = harness::FaultKind::kNodeCrash;
  crash.node = 3;
  crash.at = sim::SimDuration::micros(5'800'000);
  config.faults.events.push_back(crash);

  harness::World world(config, harness::RunMode::kHadoop);
  world.boot();

  NodeTable* table = world.rm().node_table();
  ASSERT_NE(table, nullptr);
  int audits = 0;
  std::function<void()> audit = [&] {
    const std::vector<std::string> findings = table->audit();
    ASSERT_TRUE(findings.empty()) << policy << ": " << findings.front();
    ASSERT_EQ(ids_of(table->schedulable()), reference_schedulable(table->states())) << policy;
    ++audits;
    world.simulation().schedule_after(sim::SimDuration::millis(500), [&] { audit(); });
  };
  world.simulation().schedule_after(sim::SimDuration::millis(500), [&] { audit(); });

  wl::WordCountParams params;
  params.num_files = 2;
  params.bytes_per_file = 256 * 1024;
  wl::WordCount wc(params);
  auto result = world.run(wc);
  ASSERT_TRUE(result.has_value()) << policy;
  EXPECT_TRUE(result->succeeded) << policy;
  EXPECT_GT(audits, 10) << policy;  // the hook actually ran mid-job
}

TEST(NodeTableOracle, EveryRegistryPolicyStaysConsistentUnderFaults) {
  const std::vector<std::string> names = core::SchedulerRegistry::instance().names();
  ASSERT_EQ(names.size(), 5u);  // grow this test when the zoo grows
  for (const std::string& policy : names) {
    SCOPED_TRACE(policy);
    run_policy_with_audit(policy);
  }
}

// ---- bounded per-event work on a big cluster ----------------------

// The point of the overhaul: scheduler work per event must not scale
// with cluster size. On a 512-node world running one small job, the
// average nodes visited per first_fit call must stay near 1 (the tree
// descends straight to the leftmost fit when the cluster is idle),
// where a front-to-back scan would visit O(alive nodes) every call.
TEST(NodeTableOracle, FirstFitVisitsStayBoundedOnLargeCluster) {
  harness::WorldConfig config;
  config.cluster =
      cluster::ClusterConfig::uniform(512, /*rack_count=*/16, cluster::azure_a3());
  config.scheduler = "fcfs";  // every allocation goes through first_fit

  harness::World world(config, harness::RunMode::kHadoop);
  world.boot();
  wl::WordCountParams params;
  params.num_files = 2;
  params.bytes_per_file = 256 * 1024;
  wl::WordCount wc(params);
  auto result = world.run(wc);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->succeeded);

  const NodeTable::Stats& stats = world.rm().node_table()->stats();
  ASSERT_GT(stats.first_fit_calls, 0u);
  const double visited_per_call = static_cast<double>(stats.first_fit_nodes_visited) /
                                  static_cast<double>(stats.first_fit_calls);
  // Tree descent touches a handful of segment-tree leaves; a linear
  // scan would average hundreds here. Generous headroom, but orders of
  // magnitude below 512.
  EXPECT_LT(visited_per_call, 8.0);
  // Membership never flipped (no faults), so the schedulable list must
  // have been rebuilt O(1) times, not per event.
  EXPECT_LE(stats.membership_rebuilds, 4u);
}

}  // namespace
}  // namespace mrapid
