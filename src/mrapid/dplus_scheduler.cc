#include "mrapid/dplus_scheduler.h"

#include <algorithm>

#include "yarn/node_table.h"

namespace mrapid::core {

using cluster::Locality;
using yarn::Ask;
using yarn::NodeState;
using yarn::PolicyScheduler;
using yarn::SchedulingEvent;

void DPlusAlgorithm::schedule(PolicyScheduler& scheduler, const SchedulingEvent& event) {
  if (event.kind == SchedulingEvent::Kind::kAsksAdded && !options_.immediate_response) {
    return;
  }
  // kAsksAdded with immediate_response: answer in the same heartbeat.
  // kNodeUpdated: freed resources just became visible in the
  // ClusterResource snapshot; serve whatever is still queued.
  run_algorithm(scheduler);
}

DPlusAlgorithm::Dominant DPlusAlgorithm::dominant_resource(PolicyScheduler& scheduler) const {
  // Schedulable totals only: degraded capacity is excluded. O(1).
  const yarn::NodeTable::Aggregates agg = scheduler.context().node_table()->aggregates();
  const double vcore_ratio =
      agg.total_vcores > 0 ? static_cast<double>(agg.used_vcores) / agg.total_vcores : 0.0;
  const double mem_ratio =
      agg.total_mem > 0 ? static_cast<double>(agg.used_mem) / agg.total_mem : 0.0;
  return vcore_ratio >= mem_ratio ? Dominant::kVcores : Dominant::kMemory;
}

std::vector<NodeState*> DPlusAlgorithm::sorted_nodes(PolicyScheduler& scheduler) const {
  // schedulable_nodes() is already ascending-id schedulable.
  std::vector<NodeState*> nodes = scheduler.schedulable_nodes();
  if (!options_.balanced_spread) {
    // Packing behaviour: fixed node order, first fit.
    return nodes;
  }
  const Dominant dominant = dominant_resource(scheduler);
  std::stable_sort(nodes.begin(), nodes.end(), [dominant](const NodeState* a,
                                                          const NodeState* b) {
    const std::int64_t avail_a = dominant == Dominant::kVcores
                                     ? a->available().vcores
                                     : a->available().memory_mb;
    const std::int64_t avail_b = dominant == Dominant::kVcores
                                     ? b->available().vcores
                                     : b->available().memory_mb;
    if (avail_a != avail_b) return avail_a > avail_b;  // idler nodes first
    return a->id < b->id;                              // deterministic tie-break
  });
  return nodes;
}

void DPlusAlgorithm::run_algorithm(PolicyScheduler& scheduler) {
  if (scheduler.queue().empty()) return;

  // Algorithm 1: types = {NodeLocal, RackLocal, ANY}. For each tier we
  // serve queued asks FIFO, placing each on the idlest matching node
  // (the dominant-resource descending sort, recomputed after every
  // allocation, is what yields the round-robin spread of Fig. 14).
  const std::vector<Locality> tiers =
      options_.locality_aware
          ? std::vector<Locality>{Locality::kNodeLocal, Locality::kRackLocal, Locality::kAny}
          : std::vector<Locality>{Locality::kAny};

  for (Locality tier : tiers) {
    if (options_.balanced_spread) {
      // Spread placement: serve asks FIFO, re-sorting nodes by
      // available dominant resource after every allocation so each
      // task lands on the currently idlest matching node — the
      // round-robin effect of Fig. 14.
      bool progress = true;
      while (progress && !scheduler.queue().empty()) {
        progress = false;
        const auto nodes = sorted_nodes(scheduler);  // lines 3-4: dominant sort
        for (std::size_t i = 0; i < scheduler.queue().size(); ++i) {
          const Ask& ask = scheduler.queue()[i].ask;
          NodeState* chosen = nullptr;
          for (NodeState* node : nodes) {
            if (!ask.capability.fits_in(node->available())) continue;
            if (options_.locality_aware && tier != Locality::kAny &&
                scheduler.locality_of(ask, node->id) != tier) {
              continue;
            }
            chosen = node;
            break;
          }
          if (chosen == nullptr) continue;
          scheduler.allocate(i, *chosen);
          progress = true;
          break;  // re-sort nodes before placing the next ask
        }
      }
    } else {
      // Ablation (spread disabled): the paper's literal node-major
      // loop without the sort — fill each node with every matching
      // task before moving on, i.e. greedy packing.
      for (NodeState* node : sorted_nodes(scheduler)) {
        for (std::size_t i = 0; i < scheduler.queue().size();) {
          const Ask& ask = scheduler.queue()[i].ask;
          const bool fits = ask.capability.fits_in(node->available());
          const bool tier_ok = !options_.locality_aware || tier == Locality::kAny ||
                               scheduler.locality_of(ask, node->id) == tier;
          if (fits && tier_ok) {
            scheduler.allocate(i, *node);
          } else {
            ++i;
          }
        }
      }
    }
    if (scheduler.queue().empty()) break;  // lines 12-13: request satisfied
  }
}

}  // namespace mrapid::core
