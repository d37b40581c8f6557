#pragma once

// The HDFS default block placement policy (BlockPlacementPolicyDefault):
//   replica 1 -> the writer's node if it is a DataNode, else a random one;
//   replica 2 -> a random node in a *different* rack;
//   replica 3 -> a different node in the *same remote* rack as replica 2;
//   further replicas -> random nodes not yet holding the block.
// Single-rack clusters degrade gracefully (all replicas distinct nodes).
//
// Each replica draw is uniform over the candidate sequence: the
// datanodes, in datanodes_ order, that satisfy the rack rule and are
// not already chosen. Persistent per-rack and global position indexes
// answer it as an order-statistics selection: count the k candidates,
// consume one rng.next_int(0, k-1) draw, and map it to the chosen
// candidate in O(R log N) per replica for R already-chosen replicas,
// without materializing the O(N) candidate vector.
// placement_equivalence_test holds the replica vectors and the
// post-call RNG stream position to those of a candidate-vector scan
// over fuzzed topologies.

#include <cstdint>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"

namespace mrapid::hdfs {

class BlockPlacementPolicy {
 public:
  BlockPlacementPolicy(const cluster::Topology& topology,
                       std::vector<cluster::NodeId> datanodes, RngStream rng);

  // Chooses min(replication, #datanodes) distinct nodes. `writer` may
  // be kInvalidNode (external client) or a non-DataNode (the master).
  std::vector<cluster::NodeId> choose(cluster::NodeId writer, int replication);

  // Replica draws attempted (pick calls, whether or not a candidate
  // existed) — the placement/shuffle bench's work counter.
  std::uint64_t draws() const { return draws_; }

  // Test hook: consumes one RNG draw and returns it. Two copies of one
  // seeded stream that have consumed identical draw sequences return
  // identical probes — the draw-equivalence suite's "same stream
  // position" check.
  std::uint64_t rng_probe() { return rng_.next_u64(); }

 private:
  // Rack constraint of one replica draw. The three rules below are the
  // only ones the HDFS default policy needs; making them first-class
  // (rather than an opaque predicate) is what lets the position indexes
  // answer count/select queries without visiting every datanode.
  enum class RackRule { kAny, kDifferentFrom, kSameAs };

  bool is_datanode(cluster::NodeId n) const;  // dense-id lookup, O(1)

  // Uniformly random datanode not in `chosen` and satisfying the rack
  // rule; kInvalidNode (without consuming a draw) if none qualifies.
  cluster::NodeId pick(const std::vector<cluster::NodeId>& chosen, RackRule rule,
                       cluster::RackId rack);

  const cluster::Topology& topology_;
  std::vector<cluster::NodeId> datanodes_;
  RngStream rng_;
  std::uint64_t draws_ = 0;

  // node id -> position in datanodes_, or -1 for non-datanodes. Sized
  // to the topology's node count, so membership is one array load.
  std::vector<std::int32_t> position_of_;
  // Per rack, the sorted datanodes_ positions living there: the
  // persistent order-statistics index the kSameAs / kDifferentFrom
  // rules select against.
  std::vector<std::vector<std::int32_t>> rack_positions_;
};

}  // namespace mrapid::hdfs
