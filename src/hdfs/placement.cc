#include "hdfs/placement.h"

#include <algorithm>
#include <cassert>

namespace mrapid::hdfs {

using cluster::NodeId;
using cluster::RackId;

BlockPlacementPolicy::BlockPlacementPolicy(const cluster::Topology& topology,
                                           std::vector<NodeId> datanodes, RngStream rng)
    : topology_(topology), datanodes_(std::move(datanodes)), rng_(rng) {
  assert(!datanodes_.empty());
  position_of_.assign(topology_.node_count(), -1);
  rack_positions_.assign(topology_.rack_count(), {});
  for (std::size_t i = 0; i < datanodes_.size(); ++i) {
    const NodeId n = datanodes_[i];
    assert(n >= 0 && static_cast<std::size_t>(n) < topology_.node_count());
    assert(position_of_[static_cast<std::size_t>(n)] == -1 && "duplicate datanode");
    position_of_[static_cast<std::size_t>(n)] = static_cast<std::int32_t>(i);
    rack_positions_[static_cast<std::size_t>(topology_.rack_of(n))].push_back(
        static_cast<std::int32_t>(i));
  }
  // datanodes_ need not be sorted by node id, so each rack's position
  // list is sorted explicitly (it must be ascending for rank/select).
  for (auto& positions : rack_positions_) std::sort(positions.begin(), positions.end());
}

bool BlockPlacementPolicy::is_datanode(NodeId n) const {
  return n >= 0 && static_cast<std::size_t>(n) < position_of_.size() &&
         position_of_[static_cast<std::size_t>(n)] >= 0;
}

NodeId BlockPlacementPolicy::pick(const std::vector<NodeId>& chosen, RackRule rule,
                                  RackId rack) {
  ++draws_;
  const std::vector<std::int32_t>* rack_pos =
      rule == RackRule::kAny ? nullptr : &rack_positions_[static_cast<std::size_t>(rack)];

  // How many datanodes satisfy the rack rule (ignoring `chosen`).
  std::int64_t total = 0;
  switch (rule) {
    case RackRule::kAny: total = static_cast<std::int64_t>(datanodes_.size()); break;
    case RackRule::kSameAs: total = static_cast<std::int64_t>(rack_pos->size()); break;
    case RackRule::kDifferentFrom:
      total = static_cast<std::int64_t>(datanodes_.size() - rack_pos->size());
      break;
  }

  // Rank (index within the rule's candidate sequence, which is
  // datanodes_ order) of every chosen node that also satisfies the
  // rule: these are the "holes" the selection must skip. `chosen`
  // holds at most `replication` entries, so this stays O(R log N).
  std::vector<std::int64_t> ranks;
  ranks.reserve(chosen.size());
  for (NodeId c : chosen) {
    assert(is_datanode(c));
    const std::int32_t p = position_of_[static_cast<std::size_t>(c)];
    const RackId c_rack = topology_.rack_of(c);
    switch (rule) {
      case RackRule::kAny:
        ranks.push_back(p);
        break;
      case RackRule::kSameAs:
        if (c_rack == rack) {
          ranks.push_back(std::lower_bound(rack_pos->begin(), rack_pos->end(), p) -
                          rack_pos->begin());
        }
        break;
      case RackRule::kDifferentFrom:
        if (c_rack != rack) {
          ranks.push_back(p - (std::lower_bound(rack_pos->begin(), rack_pos->end(), p) -
                               rack_pos->begin()));
        }
        break;
    }
  }
  std::sort(ranks.begin(), ranks.end());

  const std::int64_t k = total - static_cast<std::int64_t>(ranks.size());
  if (k <= 0) return cluster::kInvalidNode;

  // One uniform draw over the k candidates. `target` then converts
  // "j-th candidate excluding chosen" into "target-th candidate of the
  // full rule sequence" by walking the sorted holes.
  std::int64_t target = rng_.next_int(0, k - 1);
  for (std::int64_t r : ranks) {
    if (r <= target) ++target;
  }

  switch (rule) {
    case RackRule::kAny:
      return datanodes_[static_cast<std::size_t>(target)];
    case RackRule::kSameAs:
      return datanodes_[static_cast<std::size_t>((*rack_pos)[static_cast<std::size_t>(target)])];
    case RackRule::kDifferentFrom: {
      // Select the target-th position NOT in `rack`: binary-search the
      // smallest position q whose out-of-rack prefix count reaches
      // target + 1 (monotone, so plain bisection works in O(log N)
      // with an O(log rack) rank query per step).
      std::int64_t lo = 0, hi = static_cast<std::int64_t>(datanodes_.size()) - 1;
      while (lo < hi) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        const std::int64_t in_rack_le =
            std::upper_bound(rack_pos->begin(), rack_pos->end(), static_cast<std::int32_t>(mid)) -
            rack_pos->begin();
        if (mid + 1 - in_rack_le >= target + 1) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      return datanodes_[static_cast<std::size_t>(lo)];
    }
  }
  return cluster::kInvalidNode;  // unreachable
}

std::vector<NodeId> BlockPlacementPolicy::choose(NodeId writer, int replication) {
  std::vector<NodeId> chosen;
  const int want = std::min<int>(replication, static_cast<int>(datanodes_.size()));
  if (want <= 0) return chosen;

  // Replica 1: writer-local when the writer is a DataNode.
  NodeId first = (writer != cluster::kInvalidNode && is_datanode(writer))
                     ? writer
                     : pick(chosen, RackRule::kAny, 0);
  chosen.push_back(first);
  if (static_cast<int>(chosen.size()) == want) return chosen;

  // Replica 2: different rack, if one exists.
  const RackId first_rack = topology_.rack_of(first);
  NodeId second = pick(chosen, RackRule::kDifferentFrom, first_rack);
  if (second == cluster::kInvalidNode) second = pick(chosen, RackRule::kAny, 0);
  if (second == cluster::kInvalidNode) return chosen;
  chosen.push_back(second);
  if (static_cast<int>(chosen.size()) == want) return chosen;

  // Replica 3: same rack as replica 2, different node.
  const RackId second_rack = topology_.rack_of(second);
  NodeId third = pick(chosen, RackRule::kSameAs, second_rack);
  if (third == cluster::kInvalidNode) third = pick(chosen, RackRule::kAny, 0);
  if (third == cluster::kInvalidNode) return chosen;
  chosen.push_back(third);

  // Any further replicas: uniform over the remainder.
  while (static_cast<int>(chosen.size()) < want) {
    NodeId extra = pick(chosen, RackRule::kAny, 0);
    if (extra == cluster::kInvalidNode) break;
    chosen.push_back(extra);
  }
  return chosen;
}

}  // namespace mrapid::hdfs
