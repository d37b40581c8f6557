#pragma once

// Flow-level network with max-min fair bandwidth sharing.
//
// Topology: every node has a full-duplex NIC (an up-link and a
// down-link), every rack has a full-duplex uplink to a non-blocking
// core switch. A flow's path is the set of directed links it crosses;
// rates are assigned by progressive filling (the classic max-min
// waterfill), and — as in sim::BandwidthResource — every membership
// change advances fluid progress and re-plans the single "next
// completion" event.
//
// Flows live in a slab with an intrusive insertion-order list and an
// id -> slot map, so cancel/flow_rate are O(1) instead of linear scans
// and iteration order (which fixes both the waterfill freeze order and
// completion-callback order, i.e. the traces) is the same stable
// insertion order the old erase-preserving vector had.
//
// The waterfill is incremental: only the links active flows cross
// participate. Per-link flow lists pick the freeze set without a
// global scan, and a lazy min-heap over link shares finds each round's
// bottleneck (lowest share, ties to the lowest link index):
// O(touched links * log) per replan, independent of fabric size.
// network_rates_diff_test holds every replan's rates to 0 ULP against
// a plain progressive-filling reference that does the same
// floating-point operations in the same order, and checks them against
// a brute-force max-min oracle.
//
// Every slab entry is a *bundle* of one or more legs sharing a
// (src, dst) path: start_flow starts a 1-leg bundle (the classic
// flow), and the shuffle batches the same-(src,dst) fetch legs of one
// dispatch into a single bundle via announce_flow/start_announced.
// Each leg keeps its own id, byte count, fluid progress and completion
// trace/callback, and the waterfill counts *legs* when splitting link
// capacity, so a k-leg bundle is observationally identical — rates,
// completion times and traces — to k separate single-leg flows, while
// costing one slab slot and one waterfill membership.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/units.h"
#include "sim/simulation.h"

namespace mrapid::cluster {

struct NetworkConfig {
  // Per-node NIC rate is taken from each NodeSpec; these are the
  // shared fabric parameters.
  Rate rack_uplink = Rate::gbit_per_sec(10);
  Rate loopback = Rate::gbit_per_sec(20);  // same-node "transfer"
};

class Network {
 public:
  using FlowId = std::uint64_t;
  using CompletionCallback = std::function<void(sim::SimDuration)>;

  Network(sim::Simulation& sim, const Topology& topology, std::vector<Rate> node_nic_rates,
          NetworkConfig config);

  // Starts a src -> dst flow of `bytes`. Zero-byte flows complete at
  // the current instant.
  FlowId start_flow(NodeId src, NodeId dst, Bytes bytes, CompletionCallback on_complete);
  bool cancel(FlowId id);

  // One leg of a to-be-started bundle (see start_announced).
  struct LegStart {
    FlowId id = 0;  // from announce_flow
    Bytes bytes = 0;
    CompletionCallback on_complete;
  };

  // Reserves a flow id and emits its "net.flow" trace *now*, at the
  // call site, without starting anything — so a caller batching legs
  // keeps the exact trace interleaving an immediate start_flow would
  // have produced. The id must be started with start_announced() in
  // the same dispatch (before simulated time advances).
  FlowId announce_flow(NodeId src, NodeId dst, Bytes bytes);

  // Starts a batch of announced legs as one src -> dst bundle. Legs
  // must have bytes > 0 (zero-byte fetches never reach the network).
  // Consumes the callbacks; the caller may clear() and reuse the
  // vector's capacity.
  void start_announced(NodeId src, NodeId dst, std::vector<LegStart>& legs);

  // Flow ids in flight (every leg of a bundle counts: one per
  // announced id not yet completed or cancelled).
  std::size_t active_flows() const { return active_legs_; }
  // Rate currently assigned to a flow (0 if unknown/finished).
  Rate flow_rate(FlowId id) const;
  Bytes bytes_delivered() const { return bytes_delivered_; }

  // Lifetime counters for the placement/shuffle bench and the
  // bounded-work assertions in the differential suite.
  struct Stats {
    std::uint64_t flows_started = 0;
    std::uint64_t replans = 0;        // assign_rates invocations
    std::uint64_t links_scanned = 0;  // bottleneck-heap pops, stale entries included
  };
  const Stats& stats() const { return stats_; }

 private:
  using LinkIndex = std::size_t;

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Leg {
    FlowId id = 0;
    double remaining_bytes = 0.0;
    Bytes total_bytes = 0;
    CompletionCallback on_complete;
    bool live = false;  // false once completed or cancelled
  };

  struct Flow {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    double rate_bps = 0.0;  // bytes per second *per leg*, assigned by waterfill
    sim::SimTime started;
    std::vector<Leg> legs;  // >= 1; capacity reused across slot reuse
    std::uint32_t live_legs = 0;
    std::array<LinkIndex, 4> path{};  // up to [up, rack-up, rack-down, down]
    std::uint8_t path_len = 0;
    bool active = false;
    std::uint32_t prev = kNoSlot;  // insertion-order list over slots
    std::uint32_t next = kNoSlot;
    std::uint64_t assigned_round = 0;  // waterfill freeze stamp
  };

  void set_path(Flow& flow, NodeId src, NodeId dst) const;
  std::uint32_t alloc_slot();
  void push_back_slot(std::uint32_t slot);
  void remove_flow(std::uint32_t slot);  // unlink + per-link lists + free (legs already dead)
  void kill_leg(Flow& flow, Leg& leg);   // id map + live counters
  void advance_progress();
  void assign_rates();  // incremental progressive filling
  void replan();
  void on_completion_event();

  sim::Simulation& sim_;
  const Topology& topology_;
  NetworkConfig config_;

  // Link layout: [node up x N][node down x N][rack up x R][rack down x R][loopback x N]
  std::vector<double> link_capacity_bps_;
  LinkIndex up_link(NodeId n) const { return static_cast<LinkIndex>(n); }
  LinkIndex down_link(NodeId n) const { return node_count_ + static_cast<LinkIndex>(n); }
  LinkIndex rack_up_link(RackId r) const { return 2 * node_count_ + static_cast<LinkIndex>(r); }
  LinkIndex rack_down_link(RackId r) const {
    return 2 * node_count_ + rack_count_ + static_cast<LinkIndex>(r);
  }
  LinkIndex loopback_link(NodeId n) const {
    return 2 * node_count_ + 2 * rack_count_ + static_cast<LinkIndex>(n);
  }

  std::size_t node_count_;
  std::size_t rack_count_;

  // Flow storage: slab + free list + intrusive insertion-order list.
  std::vector<Flow> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t head_ = kNoSlot;
  std::uint32_t tail_ = kNoSlot;
  std::size_t active_count_ = 0;  // active slab entries (bundles)
  std::size_t active_legs_ = 0;   // live legs across all bundles
  std::unordered_map<FlowId, std::uint32_t> slot_of_;  // every leg id -> slot

  // Incremental-waterfill state. link_flows_[l] holds the active slots
  // crossing l in insertion order (the same relative order the global
  // list gives), which fixes the freeze order within a round.
  std::vector<std::vector<std::uint32_t>> link_flows_;
  // Scratch, sized by link count but touched only on active links;
  // entries are reset via touched_ after every replan.
  std::vector<double> residual_;
  std::vector<int> unassigned_on_link_;
  std::vector<LinkIndex> touched_;
  std::vector<std::pair<double, LinkIndex>> share_heap_;
  std::vector<LegStart> single_leg_;  // start_flow scratch

  std::uint64_t round_ = 0;
  sim::SimTime last_update_ = sim::SimTime::zero();
  sim::EventId completion_event_{};
  FlowId next_id_ = 1;
  Bytes bytes_delivered_ = 0;
  Stats stats_;
};

}  // namespace mrapid::cluster
