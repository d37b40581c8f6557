#pragma once

// The RM's node bookkeeping: the structure that keeps the scheduler
// hot path from rescanning all N nodes per event.
//
// NodeTable owns the NodeState storage and keeps, incrementally:
//
//   * a dense id -> index map (node ids are small dense ints), making
//     node_state() O(1) for every caller including judge_locality;
//   * the schedulable list (alive && !blacklisted), ascending id —
//     rebuilt only when membership flips, which is rare (faults), not
//     per event;
//   * aggregate schedulable capacity/usage per dimension: O(1)
//     wait-estimator refresh and O(1) D+ dominant-resource choice;
//   * a segment tree of per-node available (vcores, memory) maxima —
//     first_fit(need) descends it to the lowest-id schedulable node
//     that fits, in O(log N) when fits are dense (worst case still
//     O(N), but only when almost nothing fits).
//
// Every query answers exactly what a from-scratch scan of the states
// answers: same node choices, same sums. Mutations go through the
// funnel methods below so the structures can never drift from the
// states they index. tests/node_table_oracle_test.cc checks each query
// against such a scan after every fuzzed event; audit() is its weapon.

#include <cstdint>
#include <string>
#include <vector>

#include "yarn/scheduler.h"

namespace mrapid::yarn {

class NodeTable {
 public:
  NodeTable() = default;

  NodeTable(const NodeTable&) = delete;
  NodeTable& operator=(const NodeTable&) = delete;

  // Registration (RM::start). Ids must be added in ascending order;
  // the vector must not be touched behind the table's back afterwards.
  NodeState& add_node(const NodeState& state);

  std::vector<NodeState>& states() { return states_; }
  const std::vector<NodeState>& states() const { return states_; }
  std::size_t size() const { return states_.size(); }

  // O(1): dense id map (nullptr for unknown ids).
  NodeState* find(cluster::NodeId id);
  const NodeState* find(cluster::NodeId id) const;

  // Schedulable nodes in ascending id order: a cached list rebuilt
  // only on membership flips. Pointers stay valid until the next
  // membership flip / add_node.
  const std::vector<NodeState*>& schedulable();

  // Sum of capacity.vcores over schedulable nodes (wait-estimator
  // servers). O(1) between membership flips.
  int schedulable_capacity_vcores();

  // Schedulable totals for the D+ dominant-resource decision.
  struct Aggregates {
    std::int64_t total_vcores = 0;
    std::int64_t used_vcores = 0;
    std::int64_t total_mem = 0;
    std::int64_t used_mem = 0;
  };
  Aggregates aggregates();

  // Lowest-id schedulable node with need.fits_in(available()), or
  // nullptr. `skip` excludes one node (EASY's reserved node) without
  // changing the order. O(log N) via the segment tree when fits are
  // dense.
  NodeState* first_fit(Resource need, cluster::NodeId skip = cluster::kInvalidNode);

  // ---- mutation funnel (the ONLY way node fields may change) -------
  void charge(NodeState& node, Resource amount);            // used +=
  void uncharge(NodeState& node, Resource amount);          // used -=
  void add_pending_release(NodeState& node, Resource amount);
  void apply_pending_release(NodeState& node);  // heartbeat: used -= pending
  void void_resources(NodeState& node);         // expiry/rejoin: used = pending = 0
  void set_alive(NodeState& node, bool alive);
  void set_blacklisted(NodeState& node, bool blacklisted);
  void record_failure(NodeState& node) { ++node.failures; }

  struct Stats {
    std::uint64_t lookups = 0;            // find() calls
    std::uint64_t first_fit_calls = 0;
    std::uint64_t first_fit_nodes_visited = 0;  // tree leaves reached
    std::uint64_t membership_rebuilds = 0;
    std::uint64_t tree_updates = 0;
  };
  const Stats& stats() const { return stats_; }

  // From-scratch cross-check of every incremental structure against
  // the raw states. Returns human-readable inconsistencies (empty =
  // consistent). The oracle test calls this after every fuzzed event.
  std::vector<std::string> audit();

 private:
  void rebuild_membership();
  void tree_build();
  void tree_update(std::size_t index);
  // Leaf payload: available() per dimension, or kDeadLeaf for
  // unschedulable nodes so no non-negative need ever fits.
  static constexpr std::int64_t kDeadLeaf = -1;

  std::vector<NodeState> states_;
  DenseNodeMap<std::int32_t> index_of_{-1};

  std::vector<NodeState*> schedulable_;  // rebuilt on membership flips
  bool membership_dirty_ = true;
  Aggregates aggregates_;

  // Segment tree, 1-based heap layout over `tree_size_` leaves
  // (next power of two >= states_.size()); per-dimension maxima.
  std::vector<std::int64_t> tree_max_vcores_;
  std::vector<std::int64_t> tree_max_mem_;
  std::size_t tree_size_ = 0;

  Stats stats_;
};

}  // namespace mrapid::yarn
