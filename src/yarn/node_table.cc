#include "yarn/node_table.h"

#include <algorithm>
#include <cassert>

namespace mrapid::yarn {

namespace {

// Leaf payload for the max tree: a dead/blacklisted node must reject
// every non-negative need on both dimensions.
std::int64_t leaf_vcores(const NodeState& node, std::int64_t dead) {
  return node.schedulable() ? node.available().vcores : dead;
}
std::int64_t leaf_mem(const NodeState& node, std::int64_t dead) {
  return node.schedulable() ? node.available().memory_mb : dead;
}

}  // namespace

NodeState& NodeTable::add_node(const NodeState& state) {
  assert(states_.empty() || states_.back().id < state.id);  // ascending, dense-ish
  // Pointers into states_ are handed out (schedulable list, policy
  // passes), so growth must never relocate: reserve geometrically
  // before the push would.
  if (states_.size() == states_.capacity()) {
    states_.reserve(states_.empty() ? 64 : states_.capacity() * 2);
    membership_dirty_ = true;  // cached pointers just died
  }
  states_.push_back(state);
  index_of_[state.id] = static_cast<std::int32_t>(states_.size() - 1);
  membership_dirty_ = true;
  tree_size_ = 0;  // geometry changed; rebuilt lazily
  return states_.back();
}

NodeState* NodeTable::find(cluster::NodeId id) {
  ++stats_.lookups;
  const std::int32_t index = index_of_.get(id);
  return index < 0 ? nullptr : &states_[static_cast<std::size_t>(index)];
}

const NodeState* NodeTable::find(cluster::NodeId id) const {
  const std::int32_t index = index_of_.get(id);
  return index < 0 ? nullptr : &states_[static_cast<std::size_t>(index)];
}

void NodeTable::rebuild_membership() {
  ++stats_.membership_rebuilds;
  schedulable_.clear();
  aggregates_ = Aggregates{};
  for (auto& node : states_) {
    if (!node.schedulable()) continue;
    schedulable_.push_back(&node);  // states_ is ascending-id by construction
    aggregates_.total_vcores += node.capacity.vcores;
    aggregates_.used_vcores += node.used.vcores;
    aggregates_.total_mem += node.capacity.memory_mb;
    aggregates_.used_mem += node.used.memory_mb;
  }
  membership_dirty_ = false;
}

const std::vector<NodeState*>& NodeTable::schedulable() {
  if (membership_dirty_) rebuild_membership();
  return schedulable_;
}

int NodeTable::schedulable_capacity_vcores() {
  if (membership_dirty_) rebuild_membership();
  return static_cast<int>(aggregates_.total_vcores);
}

NodeTable::Aggregates NodeTable::aggregates() {
  if (membership_dirty_) rebuild_membership();
  return aggregates_;
}

// ---- segment tree -------------------------------------------------

void NodeTable::tree_build() {
  tree_size_ = 1;
  while (tree_size_ < states_.size()) tree_size_ *= 2;
  tree_max_vcores_.assign(2 * tree_size_, kDeadLeaf);
  tree_max_mem_.assign(2 * tree_size_, kDeadLeaf);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    tree_max_vcores_[tree_size_ + i] = leaf_vcores(states_[i], kDeadLeaf);
    tree_max_mem_[tree_size_ + i] = leaf_mem(states_[i], kDeadLeaf);
  }
  for (std::size_t i = tree_size_ - 1; i >= 1; --i) {
    tree_max_vcores_[i] = std::max(tree_max_vcores_[2 * i], tree_max_vcores_[2 * i + 1]);
    tree_max_mem_[i] = std::max(tree_max_mem_[2 * i], tree_max_mem_[2 * i + 1]);
  }
}

void NodeTable::tree_update(std::size_t index) {
  if (tree_size_ == 0) return;  // built lazily on the first query
  ++stats_.tree_updates;
  std::size_t i = tree_size_ + index;
  tree_max_vcores_[i] = leaf_vcores(states_[index], kDeadLeaf);
  tree_max_mem_[i] = leaf_mem(states_[index], kDeadLeaf);
  for (i /= 2; i >= 1; i /= 2) {
    tree_max_vcores_[i] = std::max(tree_max_vcores_[2 * i], tree_max_vcores_[2 * i + 1]);
    tree_max_mem_[i] = std::max(tree_max_mem_[2 * i], tree_max_mem_[2 * i + 1]);
  }
}

NodeState* NodeTable::first_fit(Resource need, cluster::NodeId skip) {
  ++stats_.first_fit_calls;
  assert(need.vcores >= 0 && need.memory_mb >= 0);
  if (tree_size_ == 0) tree_build();
  // Leftmost-fit descent: a subtree can only contain a fit if its max
  // on BOTH dimensions covers the need (necessary, not sufficient —
  // the maxima may come from different leaves — so this prunes rather
  // than decides; the leaf check decides). Visiting left before right
  // yields the lowest index, i.e. the lowest node id.
  NodeState* result = nullptr;
  auto descend = [&](auto&& self, std::size_t i) -> void {
    if (result != nullptr) return;
    if (tree_max_vcores_[i] < need.vcores || tree_max_mem_[i] < need.memory_mb) return;
    if (i >= tree_size_) {
      const std::size_t index = i - tree_size_;
      if (index >= states_.size()) return;
      ++stats_.first_fit_nodes_visited;
      NodeState& node = states_[index];
      // A leaf passing the max test individually IS a fit (its leaf
      // values are its own availability) — unless it is the skip node.
      if (node.id == skip) return;
      assert(node.schedulable() && need.fits_in(node.available()));
      result = &node;
      return;
    }
    self(self, 2 * i);
    self(self, 2 * i + 1);
  };
  descend(descend, 1);
  return result;
}

// ---- mutation funnel ----------------------------------------------

void NodeTable::charge(NodeState& node, Resource amount) {
  node.used = node.used + amount;
  if (!membership_dirty_ && node.schedulable()) {
    aggregates_.used_vcores += amount.vcores;
    aggregates_.used_mem += amount.memory_mb;
  }
  tree_update(static_cast<std::size_t>(&node - states_.data()));
}

void NodeTable::uncharge(NodeState& node, Resource amount) {
  node.used = node.used - amount;
  assert(node.used.vcores >= 0 && node.used.memory_mb >= 0);
  if (!membership_dirty_ && node.schedulable()) {
    aggregates_.used_vcores -= amount.vcores;
    aggregates_.used_mem -= amount.memory_mb;
  }
  tree_update(static_cast<std::size_t>(&node - states_.data()));
}

void NodeTable::add_pending_release(NodeState& node, Resource amount) {
  // pending_release is invisible to available() and the aggregates;
  // no structure to touch.
  node.pending_release = node.pending_release + amount;
}

void NodeTable::apply_pending_release(NodeState& node) {
  if (node.pending_release.is_zero()) return;
  uncharge(node, node.pending_release);
  node.pending_release = Resource{};
}

void NodeTable::void_resources(NodeState& node) {
  if (!node.used.is_zero()) uncharge(node, node.used);
  node.pending_release = Resource{};
}

void NodeTable::set_alive(NodeState& node, bool alive) {
  if (node.alive == alive) return;
  node.alive = alive;
  membership_dirty_ = true;
  tree_update(static_cast<std::size_t>(&node - states_.data()));
}

void NodeTable::set_blacklisted(NodeState& node, bool blacklisted) {
  if (node.blacklisted == blacklisted) return;
  node.blacklisted = blacklisted;
  membership_dirty_ = true;
  tree_update(static_cast<std::size_t>(&node - states_.data()));
}

// ---- audit --------------------------------------------------------

std::vector<std::string> NodeTable::audit() {
  std::vector<std::string> problems;
  auto complain = [&problems](std::string what) { problems.push_back(std::move(what)); };

  // Dense map round-trip.
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (find(states_[i].id) != &states_[i]) {
      complain("index map broken for node " + std::to_string(states_[i].id));
    }
  }

  // Fresh scan of membership + aggregates.
  std::vector<const NodeState*> fresh;
  Aggregates sums;
  for (const auto& node : states_) {
    if (!node.schedulable()) continue;
    fresh.push_back(&node);
    sums.total_vcores += node.capacity.vcores;
    sums.used_vcores += node.used.vcores;
    sums.total_mem += node.capacity.memory_mb;
    sums.used_mem += node.used.memory_mb;
  }
  const auto& cached = schedulable();  // resolves dirtiness exactly as queries do
  if (cached.size() != fresh.size()) {
    complain("schedulable list size " + std::to_string(cached.size()) + " != fresh " +
             std::to_string(fresh.size()));
  } else {
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      if (cached[i] != fresh[i]) {
        complain("schedulable list entry " + std::to_string(i) + " is node " +
                 std::to_string(cached[i]->id) + ", fresh scan says " +
                 std::to_string(fresh[i]->id));
      }
    }
  }
  const Aggregates got = aggregates();
  if (got.total_vcores != sums.total_vcores || got.used_vcores != sums.used_vcores ||
      got.total_mem != sums.total_mem || got.used_mem != sums.used_mem) {
    complain("aggregates drifted from fresh sums");
  }

  // Tree leaves + internal maxima (only meaningful once built).
  if (tree_size_ != 0) {
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (tree_max_vcores_[tree_size_ + i] != leaf_vcores(states_[i], kDeadLeaf) ||
          tree_max_mem_[tree_size_ + i] != leaf_mem(states_[i], kDeadLeaf)) {
        complain("tree leaf stale for node " + std::to_string(states_[i].id));
      }
    }
    for (std::size_t i = 1; i < tree_size_; ++i) {
      if (tree_max_vcores_[i] != std::max(tree_max_vcores_[2 * i], tree_max_vcores_[2 * i + 1]) ||
          tree_max_mem_[i] != std::max(tree_max_mem_[2 * i], tree_max_mem_[2 * i + 1])) {
        complain("tree internal node " + std::to_string(i) + " stale");
      }
    }
  }
  return problems;
}

}  // namespace mrapid::yarn
