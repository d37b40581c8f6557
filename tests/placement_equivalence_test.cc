// Draw-equivalence wall for the placement policy (hdfs/placement.h):
// its order-statistics selection must consume exactly the RNG draws a
// plain candidate-vector scan consumes — same count, same bounds — and
// map every draw to the same node. The scan lives here as the oracle.
// The suites below hold the policy to byte-identical replica vectors
// AND an identical post-call stream position (via rng_probe) over
// fuzzed topologies: 1..64 racks, up to 4096 datanodes in shuffled
// registration order, writers that are dead (kInvalidNode), alive
// datanodes, and alive non-datanodes (the master), replication 1..6.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"
#include "hdfs/placement.h"

namespace mrapid::hdfs {
namespace {

using cluster::kInvalidNode;
using cluster::NodeId;
using cluster::RackId;

// The oracle: the HDFS default policy written the obvious way. Every
// replica draw materializes the candidate vector (datanodes in
// registration order that satisfy the rack rule and are not yet
// chosen) and indexes it with one uniform draw.
class ScanPlacement {
 public:
  ScanPlacement(const cluster::Topology& topology, std::vector<NodeId> datanodes, RngStream rng)
      : topology_(topology), datanodes_(std::move(datanodes)), rng_(rng) {}

  std::vector<NodeId> choose(NodeId writer, int replication) {
    std::vector<NodeId> chosen;
    const int want = std::min<int>(replication, static_cast<int>(datanodes_.size()));
    if (want <= 0) return chosen;
    const bool writer_is_datanode =
        std::find(datanodes_.begin(), datanodes_.end(), writer) != datanodes_.end();
    chosen.push_back(writer_is_datanode ? writer : pick(chosen, Rule::kAny, 0));
    if (static_cast<int>(chosen.size()) == want) return chosen;

    NodeId second = pick(chosen, Rule::kDifferentFrom, topology_.rack_of(chosen[0]));
    if (second == kInvalidNode) second = pick(chosen, Rule::kAny, 0);
    if (second == kInvalidNode) return chosen;
    chosen.push_back(second);
    if (static_cast<int>(chosen.size()) == want) return chosen;

    NodeId third = pick(chosen, Rule::kSameAs, topology_.rack_of(second));
    if (third == kInvalidNode) third = pick(chosen, Rule::kAny, 0);
    if (third == kInvalidNode) return chosen;
    chosen.push_back(third);

    while (static_cast<int>(chosen.size()) < want) {
      const NodeId extra = pick(chosen, Rule::kAny, 0);
      if (extra == kInvalidNode) break;
      chosen.push_back(extra);
    }
    return chosen;
  }

  std::uint64_t draws() const { return draws_; }
  std::uint64_t rng_probe() { return rng_.next_u64(); }

 private:
  enum class Rule { kAny, kDifferentFrom, kSameAs };

  NodeId pick(const std::vector<NodeId>& chosen, Rule rule, RackId rack) {
    ++draws_;
    std::vector<NodeId> candidates;
    for (NodeId n : datanodes_) {
      if (std::find(chosen.begin(), chosen.end(), n) != chosen.end()) continue;
      if (rule == Rule::kDifferentFrom && topology_.rack_of(n) == rack) continue;
      if (rule == Rule::kSameAs && topology_.rack_of(n) != rack) continue;
      candidates.push_back(n);
    }
    if (candidates.empty()) return kInvalidNode;
    return candidates[static_cast<std::size_t>(
        rng_.next_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
  }

  const cluster::Topology& topology_;
  std::vector<NodeId> datanodes_;
  RngStream rng_;
  std::uint64_t draws_ = 0;
};

struct FuzzTopology {
  cluster::Topology topology;
  std::vector<NodeId> datanodes;      // shuffled: candidate order != id order
  NodeId non_datanode = kInvalidNode; // a live node with no DataNode, if any
};

FuzzTopology make_fuzz_topology(RngStream& rng, int max_datanodes) {
  const int dn_count = static_cast<int>(rng.next_int(1, max_datanodes));
  const int extra = static_cast<int>(rng.next_int(0, 2));  // non-datanode nodes
  const int total = dn_count + extra;
  const int racks = static_cast<int>(rng.next_int(1, std::min(64, total)));

  // Every rack gets one node up front so none is empty; the rest land
  // uniformly at random.
  std::vector<std::vector<NodeId>> by_rack(static_cast<std::size_t>(racks));
  for (int node = 0; node < total; ++node) {
    const int rack = node < racks ? node : static_cast<int>(rng.next_int(0, racks - 1));
    by_rack[static_cast<std::size_t>(rack)].push_back(static_cast<NodeId>(node));
  }

  // Shuffle all ids; the first dn_count become DataNodes in that order,
  // which is exactly the candidate order policy and oracle must agree on.
  std::vector<NodeId> ids(static_cast<std::size_t>(total));
  for (int node = 0; node < total; ++node) ids[static_cast<std::size_t>(node)] = node;
  for (int i = total - 1; i > 0; --i) {
    std::swap(ids[static_cast<std::size_t>(i)],
              ids[static_cast<std::size_t>(rng.next_int(0, i))]);
  }
  FuzzTopology result{cluster::Topology(std::move(by_rack)),
                      std::vector<NodeId>(ids.begin(), ids.begin() + dn_count)};
  if (extra > 0) result.non_datanode = ids[static_cast<std::size_t>(dn_count)];
  return result;
}

// Runs the same draw sequence through the policy and the oracle and
// checks replica vectors, draw counters, and the RNG stream position
// after every call.
void expect_draw_equivalent(const FuzzTopology& topo, std::uint64_t seed, int draws) {
  BlockPlacementPolicy policy(topo.topology, topo.datanodes, RngStream(seed, "test.placement"));
  ScanPlacement oracle(topo.topology, topo.datanodes, RngStream(seed, "test.placement"));

  RngStream driver(seed, "test.placement-driver");
  for (int i = 0; i < draws; ++i) {
    NodeId writer = kInvalidNode;
    const std::int64_t variant = driver.next_int(0, 2);
    if (variant == 1) {
      writer = topo.datanodes[static_cast<std::size_t>(
          driver.next_int(0, static_cast<std::int64_t>(topo.datanodes.size()) - 1))];
    } else if (variant == 2 && topo.non_datanode != kInvalidNode) {
      writer = topo.non_datanode;
    }
    const int replication = static_cast<int>(driver.next_int(1, 6));

    const std::vector<NodeId> a = policy.choose(writer, replication);
    const std::vector<NodeId> b = oracle.choose(writer, replication);
    ASSERT_EQ(a, b) << "seed " << seed << " draw " << i << " writer " << writer
                    << " replication " << replication;
    ASSERT_EQ(policy.draws(), oracle.draws()) << "seed " << seed << " draw " << i;
    // Same post-call stream position: if either side had consumed a
    // draw the other did not (or with different bounds), the probes
    // diverge here and poison every later comparison too.
    ASSERT_EQ(policy.rng_probe(), oracle.rng_probe())
        << "seed " << seed << " draw " << i << ": RNG stream positions diverged";
  }
}

TEST(PlacementEquivalence, FuzzedTopologiesAreDrawIdentical) {
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    RngStream rng(seed, "test.placement-topo");
    const FuzzTopology topo = make_fuzz_topology(rng, /*max_datanodes=*/256);
    expect_draw_equivalent(topo, seed, /*draws=*/12);
  }
}

TEST(PlacementEquivalence, LargeTopologiesAreDrawIdentical) {
  // Fewer seeds, full 4096-datanode scale: the oracle is O(N) per draw,
  // so keep the draw count modest.
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    RngStream rng(seed, "test.placement-topo");
    const FuzzTopology topo = make_fuzz_topology(rng, /*max_datanodes=*/4096);
    expect_draw_equivalent(topo, seed, /*draws=*/8);
  }
}

TEST(PlacementEquivalence, SingleDatanodeAndSingleRackCorners) {
  // One datanode: every draw must return it without consuming RNG for
  // impossible rules; policy and oracle must agree on that skip.
  {
    cluster::Topology topology(std::vector<std::vector<NodeId>>{{0}});
    expect_draw_equivalent(FuzzTopology{topology, {0}}, 7, 6);
  }
  // One rack, many nodes: the "different rack" rule never matches and
  // the policy degrades to distinct same-rack nodes.
  {
    cluster::Topology topology(std::vector<std::vector<NodeId>>{{0, 1, 2, 3, 4}});
    expect_draw_equivalent(FuzzTopology{topology, {4, 2, 0, 3, 1}}, 8, 10);
  }
}

TEST(PlacementEquivalence, WriterLocalFirstReplicaInBothEngines) {
  cluster::Topology topology(std::vector<std::vector<NodeId>>{{0, 1, 2}, {3, 4, 5}});
  const std::vector<NodeId> datanodes{1, 2, 3, 4, 5};
  BlockPlacementPolicy policy(topology, datanodes, RngStream(42, "test.placement"));
  ScanPlacement oracle(topology, datanodes, RngStream(42, "test.placement"));
  for (const bool use_oracle : {false, true}) {
    const std::vector<NodeId> replicas = use_oracle ? oracle.choose(/*writer=*/4, 3)
                                                    : policy.choose(/*writer=*/4, 3);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas[0], 4) << "writer-local first replica (oracle=" << use_oracle << ")";
    // Replica 2 must land off the writer's rack.
    EXPECT_NE(topology.rack_of(replicas[1]), topology.rack_of(replicas[0]));
    const std::vector<NodeId> sorted_replicas = [&] {
      std::vector<NodeId> v = replicas;
      std::sort(v.begin(), v.end());
      return v;
    }();
    EXPECT_EQ(std::adjacent_find(sorted_replicas.begin(), sorted_replicas.end()),
              sorted_replicas.end())
        << "replicas must be distinct";
  }
}

TEST(PlacementEquivalence, ReplicationAboveClusterSizeReturnsAllDatanodes) {
  cluster::Topology topology(std::vector<std::vector<NodeId>>{{0, 1}, {2, 3}});
  const std::vector<NodeId> datanodes{1, 2, 3};
  BlockPlacementPolicy policy(topology, datanodes, RngStream(5, "test.placement"));
  ScanPlacement oracle(topology, datanodes, RngStream(5, "test.placement"));
  for (const bool use_oracle : {false, true}) {
    std::vector<NodeId> replicas = use_oracle ? oracle.choose(kInvalidNode, /*replication=*/6)
                                              : policy.choose(kInvalidNode, /*replication=*/6);
    std::sort(replicas.begin(), replicas.end());
    EXPECT_EQ(replicas, (std::vector<NodeId>{1, 2, 3}));
  }
}

}  // namespace
}  // namespace mrapid::hdfs
