// Differential wall for the waterfill (cluster/network.h): a Network
// is driven through a randomized op script (start / cancel / advance),
// and after every op each assigned rate must match, to 0 ULP, a plain
// progressive-filling reference that lives in this test and performs
// the same floating-point operations in the same order. The allocation
// is also checked against an independent brute-force max-min fairness
// oracle (feasibility on every link, and every flow crossing a
// saturated link on which it has the maximum rate). A final test pins
// the bounded-work claim: the bottleneck search must not scale with
// fabric size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "cluster/network.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/simulation.h"

namespace mrapid::cluster {
namespace {

struct Fabric {
  std::vector<std::vector<NodeId>> racks;
  std::vector<Rate> nic_rates;

  cluster::Topology topology() const { return cluster::Topology(racks); }
  std::int64_t nodes() const { return static_cast<std::int64_t>(nic_rates.size()); }
};

Fabric make_fabric(RngStream& rng, int max_nodes, int max_racks) {
  const int total = static_cast<int>(rng.next_int(2, max_nodes));
  const int racks = static_cast<int>(rng.next_int(1, std::min(max_racks, total)));
  Fabric fabric;
  fabric.racks.resize(static_cast<std::size_t>(racks));
  for (int node = 0; node < total; ++node) {
    const int rack = node < racks ? node : static_cast<int>(rng.next_int(0, racks - 1));
    fabric.racks[static_cast<std::size_t>(rack)].push_back(static_cast<NodeId>(node));
  }
  // Mixed NIC speeds so per-link shares differ, while several nodes
  // still share each speed so bottleneck ties keep happening.
  for (int node = 0; node < total; ++node) {
    fabric.nic_rates.push_back(rng.next_int(0, 1) == 0 ? Rate::gbit_per_sec(1)
                                                       : Rate::gbit_per_sec(2));
  }
  return fabric;
}

// Independent re-derivation of Network's link layout and flow paths,
// so the fairness oracle does not trust the code under test for either.
struct LinkModel {
  LinkModel(const Fabric& fabric, const cluster::Topology& topology,
            const NetworkConfig& config)
      : topology_(topology),
        nodes_(fabric.racks.empty() ? 0 : static_cast<std::size_t>(fabric.nodes())),
        racks_(fabric.racks.size()) {
    capacity.assign(3 * nodes_ + 2 * racks_, 0.0);
    for (std::size_t n = 0; n < nodes_; ++n) {
      capacity[n] = fabric.nic_rates[n].bytes_per_sec;           // node up
      capacity[nodes_ + n] = fabric.nic_rates[n].bytes_per_sec;  // node down
      capacity[2 * nodes_ + 2 * racks_ + n] = config.loopback.bytes_per_sec;
    }
    for (std::size_t r = 0; r < racks_; ++r) {
      capacity[2 * nodes_ + r] = config.rack_uplink.bytes_per_sec;           // rack up
      capacity[2 * nodes_ + racks_ + r] = config.rack_uplink.bytes_per_sec;  // rack down
    }
  }

  std::vector<std::size_t> path(NodeId src, NodeId dst) const {
    if (src == dst) return {2 * nodes_ + 2 * racks_ + static_cast<std::size_t>(src)};
    const RackId sr = topology_.rack_of(src);
    const RackId dr = topology_.rack_of(dst);
    if (sr == dr) {
      return {static_cast<std::size_t>(src), nodes_ + static_cast<std::size_t>(dst)};
    }
    return {static_cast<std::size_t>(src), 2 * nodes_ + static_cast<std::size_t>(sr),
            2 * nodes_ + racks_ + static_cast<std::size_t>(dr),
            nodes_ + static_cast<std::size_t>(dst)};
  }

  std::vector<double> capacity;

 private:
  const cluster::Topology& topology_;
  std::size_t nodes_;
  std::size_t racks_;
};

struct LiveFlow {
  NodeId src;
  NodeId dst;
};

// Max-min fairness characterization (the classic bottleneck condition,
// Bertsekas & Gallager): the allocation is feasible, and every flow
// crosses at least one saturated link on which its rate is maximal —
// so no flow's rate can be raised without lowering an equal-or-smaller
// one.
void expect_max_min_fair(const Network& net, const LinkModel& model,
                         const std::map<Network::FlowId, LiveFlow>& live) {
  std::vector<double> load(model.capacity.size(), 0.0);
  std::vector<double> max_rate(model.capacity.size(), 0.0);
  for (const auto& [id, flow] : live) {
    const double rate = net.flow_rate(id).bytes_per_sec;
    ASSERT_GT(rate, 0.0) << "flow " << id << " assigned no rate";
    for (const std::size_t l : model.path(flow.src, flow.dst)) {
      load[l] += rate;
      max_rate[l] = std::max(max_rate[l], rate);
    }
  }
  for (std::size_t l = 0; l < load.size(); ++l) {
    EXPECT_LE(load[l], model.capacity[l] * (1.0 + 1e-9) + 1e-3)
        << "link " << l << " oversubscribed";
  }
  for (const auto& [id, flow] : live) {
    const double rate = net.flow_rate(id).bytes_per_sec;
    bool bottlenecked = false;
    for (const std::size_t l : model.path(flow.src, flow.dst)) {
      const bool saturated = load[l] >= model.capacity[l] * (1.0 - 1e-9) - 1e-3;
      const bool maximal = rate >= max_rate[l] * (1.0 - 1e-9);
      bottlenecked |= saturated && maximal;
    }
    EXPECT_TRUE(bottlenecked) << "flow " << id << " crosses no saturated max-rate link";
  }
}

// Textbook progressive filling over the test's own link model: per
// round, scan every link for the smallest fair share (ties to the
// lowest link index), freeze the unfrozen flows crossing it in
// insertion order (ascending id), and subtract the share from every
// link on their paths in path order. Network's heap-driven engine must
// perform exactly these floating-point operations in this order.
std::map<Network::FlowId, double> reference_rates(const LinkModel& model,
                                                  const std::map<Network::FlowId, LiveFlow>& live) {
  std::vector<double> residual = model.capacity;
  std::vector<int> unassigned(residual.size(), 0);
  std::vector<std::pair<Network::FlowId, std::vector<std::size_t>>> flows;
  for (const auto& [id, flow] : live) {
    flows.emplace_back(id, model.path(flow.src, flow.dst));
    for (const std::size_t l : flows.back().second) ++unassigned[l];
  }
  std::map<Network::FlowId, double> rates;
  while (rates.size() < flows.size()) {
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t bottleneck = residual.size();
    for (std::size_t l = 0; l < residual.size(); ++l) {
      if (unassigned[l] == 0) continue;
      const double share = residual[l] / unassigned[l];
      if (share < best_share) {
        best_share = share;
        bottleneck = l;
      }
    }
    for (const auto& [id, path] : flows) {
      if (rates.count(id) != 0 || std::find(path.begin(), path.end(), bottleneck) == path.end()) {
        continue;
      }
      rates[id] = best_share;
      for (const std::size_t l : path) {
        residual[l] = std::max(0.0, residual[l] - best_share);
        --unassigned[l];
      }
    }
  }
  return rates;
}

struct Completion {
  Network::FlowId id = 0;
  std::int64_t at_micros = 0;
  bool operator==(const Completion& other) const {
    return id == other.id && at_micros == other.at_micros;
  }
};

// Drives one fuzzed op script through a Network. FlowIds are
// deterministic (sequential from 1), so the script knows each flow's id
// before starting it — asserted, then used to register completion
// callbacks that know their own id.
void run_script(std::uint64_t seed, int ops, int max_nodes) {
  RngStream rng(seed, "test.netdiff");
  const Fabric fabric = make_fabric(rng, max_nodes, /*max_racks=*/4);
  const cluster::Topology topology = fabric.topology();

  sim::Simulation sim(seed);
  Network net(sim, topology, fabric.nic_rates, NetworkConfig{});
  const LinkModel model(fabric, topology, NetworkConfig{});

  std::map<Network::FlowId, LiveFlow> live;  // bytes > 0, not yet done/cancelled
  std::map<Network::FlowId, Bytes> bytes_of;
  std::vector<Completion> done;
  Bytes expected_delivered = 0;
  Network::FlowId next_id = 1;

  std::int64_t now_us = 0;
  for (int op = 0; op < ops; ++op) {
    now_us += rng.next_int(0, 400'000);
    sim.run_until(sim::SimTime::from_micros(now_us));
    // Completions that fired during the advance leave the live set.
    for (const Completion& c : done) live.erase(c.id);

    const std::int64_t kind = rng.next_int(0, 9);
    if (kind <= 5) {  // start (kind 5: a zero-byte flow)
      const auto src = static_cast<NodeId>(rng.next_int(0, fabric.nodes() - 1));
      const auto dst = static_cast<NodeId>(rng.next_int(0, fabric.nodes() - 1));
      const Bytes bytes = kind == 5 ? 0 : 64_KB * rng.next_int(1, 64);
      const Network::FlowId id = next_id++;
      const auto started = net.start_flow(src, dst, bytes, [&done, &sim, id](sim::SimDuration) {
        done.push_back({id, sim.now().as_micros()});
      });
      ASSERT_EQ(started, id) << "seed " << seed << " op " << op;
      expected_delivered += bytes;
      bytes_of[id] = bytes;
      if (bytes > 0) live.emplace(id, LiveFlow{src, dst});
    } else if (kind <= 7 && next_id > 1) {  // cancel (possibly of a finished id)
      const auto target = static_cast<Network::FlowId>(rng.next_int(1, static_cast<std::int64_t>(next_id) - 1));
      const bool cancelled = net.cancel(target);
      ASSERT_EQ(cancelled, live.count(target) == 1) << "seed " << seed << " op " << op;
      if (cancelled) expected_delivered -= bytes_of[target];
      live.erase(target);
    }
    // kind 8-9: pure time advance.

    ASSERT_EQ(net.active_flows(), live.size()) << "seed " << seed << " op " << op;
    const std::map<Network::FlowId, double> reference = reference_rates(model, live);
    for (const auto& [id, flow] : live) {
      // The 0-ULP contract: identical FP operations in identical
      // order, so exact equality — not near-equality — on every rate.
      ASSERT_EQ(net.flow_rate(id).bytes_per_sec, reference.at(id))
          << "seed " << seed << " op " << op << " flow " << id;
    }
    expect_max_min_fair(net, model, live);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Drain: every remaining flow finishes, completions arrive in time
  // order, and exactly the bytes of the uncancelled flows arrive.
  sim.run_until(sim::SimTime::from_micros(now_us + 3'600'000'000LL));
  EXPECT_EQ(net.active_flows(), 0u) << "seed " << seed;
  EXPECT_TRUE(std::is_sorted(done.begin(), done.end(),
                             [](const Completion& a, const Completion& b) {
                               return a.at_micros < b.at_micros;
                             }))
      << "seed " << seed;
  EXPECT_EQ(net.bytes_delivered(), expected_delivered) << "seed " << seed;
  EXPECT_EQ(net.stats().flows_started, static_cast<std::uint64_t>(
                                           std::count_if(bytes_of.begin(), bytes_of.end(),
                                                         [](const auto& entry) {
                                                           return entry.second > 0;
                                                         })))
      << "seed " << seed;
}

TEST(NetworkRatesDiff, FuzzedScriptsMatchToZeroUlp) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    run_script(seed, /*ops=*/60, /*max_nodes=*/24);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(NetworkRatesDiff, DenseContentionMatchesToZeroUlp) {
  // Few nodes, many flows: every link is shared, rounds cascade, and
  // the heap sees a stale entry on nearly every pop.
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    run_script(seed, /*ops=*/80, /*max_nodes=*/5);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(NetworkRatesDiff, UnknownFlowLookupsAreCheap) {
  Fabric fabric;
  fabric.racks = {{0, 1}};
  fabric.nic_rates = {Rate::gbit_per_sec(1), Rate::gbit_per_sec(1)};
  const cluster::Topology topology = fabric.topology();
  sim::Simulation sim(7);
  Network net(sim, topology, fabric.nic_rates, NetworkConfig{});
  EXPECT_EQ(net.flow_rate(123).bytes_per_sec, 0.0);
  EXPECT_FALSE(net.cancel(123));
  const auto id = net.start_flow(0, 1, 1_MB, [](sim::SimDuration) {});
  EXPECT_GT(net.flow_rate(id).bytes_per_sec, 0.0);
  EXPECT_TRUE(net.cancel(id));
  EXPECT_FALSE(net.cancel(id));
}

// One fixed script on a fabric of `nodes` nodes in six racks: eight
// long flows from nodes 0..7 to the last eight nodes, then each
// cancelled. Whenever `nodes` is a multiple of six the flows see the
// same rack layout and the same relative link order on every fabric.
Network::Stats run_fixed_script(int nodes) {
  Fabric fabric;
  fabric.racks.resize(6);
  for (int node = 0; node < nodes; ++node) {
    fabric.racks[static_cast<std::size_t>(node % 6)].push_back(static_cast<NodeId>(node));
    fabric.nic_rates.push_back(Rate::gbit_per_sec(1));
  }
  const cluster::Topology topology = fabric.topology();
  sim::Simulation sim(1);
  Network net(sim, topology, fabric.nic_rates, NetworkConfig{});
  std::vector<Network::FlowId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(net.start_flow(static_cast<NodeId>(i), static_cast<NodeId>(nodes - 1 - i),
                                 512_MB, [](sim::SimDuration) {}));
  }
  for (const auto id : ids) {
    EXPECT_GT(net.flow_rate(id).bytes_per_sec, 0.0);
    net.cancel(id);
  }
  return net.stats();
}

TEST(NetworkRatesDiff, IncrementalWorkIsIndependentOfFabricSize) {
  // The bottleneck search pops heap entries only for links the flows
  // cross, so a 1,500-node fabric costs what a 24-node one does.
  const Network::Stats small = run_fixed_script(24);
  const Network::Stats large = run_fixed_script(1500);
  ASSERT_EQ(small.replans, large.replans);
  EXPECT_EQ(small.links_scanned, large.links_scanned);
  // 8 flows touch <= 8 * 4 links; even with one stale pop per freeze
  // the search stays far below one sweep of the 4,512-link fabric.
  EXPECT_LE(large.links_scanned, large.replans * 64);
}

}  // namespace
}  // namespace mrapid::cluster
