#include "cluster/network.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "sim/trace.h"

namespace mrapid::cluster {

namespace {
constexpr double kEpsilonBytes = 1e-6;
}

Network::Network(sim::Simulation& sim, const Topology& topology, std::vector<Rate> node_nic_rates,
                 NetworkConfig config)
    : sim_(sim),
      topology_(topology),
      config_(config),
      node_count_(topology.node_count()),
      rack_count_(topology.rack_count()) {
  assert(node_nic_rates.size() == node_count_);
  link_capacity_bps_.assign(3 * node_count_ + 2 * rack_count_, 0.0);
  for (std::size_t n = 0; n < node_count_; ++n) {
    link_capacity_bps_[up_link(static_cast<NodeId>(n))] = node_nic_rates[n].bytes_per_sec;
    link_capacity_bps_[down_link(static_cast<NodeId>(n))] = node_nic_rates[n].bytes_per_sec;
    link_capacity_bps_[loopback_link(static_cast<NodeId>(n))] = config_.loopback.bytes_per_sec;
  }
  for (std::size_t r = 0; r < rack_count_; ++r) {
    link_capacity_bps_[rack_up_link(static_cast<RackId>(r))] = config_.rack_uplink.bytes_per_sec;
    link_capacity_bps_[rack_down_link(static_cast<RackId>(r))] = config_.rack_uplink.bytes_per_sec;
  }
  link_flows_.resize(link_capacity_bps_.size());
  residual_.assign(link_capacity_bps_.size(), 0.0);
  unassigned_on_link_.assign(link_capacity_bps_.size(), 0);
}

void Network::set_path(Flow& flow, NodeId src, NodeId dst) const {
  if (src == dst) {
    flow.path[0] = loopback_link(src);
    flow.path_len = 1;
    return;
  }
  const RackId src_rack = topology_.rack_of(src);
  const RackId dst_rack = topology_.rack_of(dst);
  if (src_rack == dst_rack) {
    flow.path[0] = up_link(src);
    flow.path[1] = down_link(dst);
    flow.path_len = 2;
    return;
  }
  flow.path[0] = up_link(src);
  flow.path[1] = rack_up_link(src_rack);
  flow.path[2] = rack_down_link(dst_rack);
  flow.path[3] = down_link(dst);
  flow.path_len = 4;
}

std::uint32_t Network::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Network::push_back_slot(std::uint32_t slot) {
  Flow& flow = slab_[slot];
  flow.prev = tail_;
  flow.next = kNoSlot;
  if (tail_ != kNoSlot) {
    slab_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
}

void Network::remove_flow(std::uint32_t slot) {
  Flow& flow = slab_[slot];
  assert(flow.active);
  assert(flow.live_legs == 0);  // legs die individually (kill_leg) first
  if (flow.prev != kNoSlot) slab_[flow.prev].next = flow.next;
  if (flow.next != kNoSlot) slab_[flow.next].prev = flow.prev;
  if (head_ == slot) head_ = flow.next;
  if (tail_ == slot) tail_ = flow.prev;
  for (std::uint8_t i = 0; i < flow.path_len; ++i) {
    auto& on_link = link_flows_[flow.path[i]];
    on_link.erase(std::find(on_link.begin(), on_link.end(), slot));
  }
  flow.active = false;
  --active_count_;
  free_slots_.push_back(slot);
}

void Network::kill_leg(Flow& flow, Leg& leg) {
  assert(leg.live);
  slot_of_.erase(leg.id);
  leg.live = false;
  leg.on_complete = nullptr;
  --flow.live_legs;
  --active_legs_;
}

Network::FlowId Network::announce_flow(NodeId src, NodeId dst, Bytes bytes) {
  assert(bytes >= 0);
  const FlowId id = next_id_++;
  MRAPID_TRACE(sim_, sim::TraceCategory::kNet, "net.flow", {"flow", id}, {"src", src},
               {"dst", dst}, {"bytes", bytes});
  return id;
}

Network::FlowId Network::start_flow(NodeId src, NodeId dst, Bytes bytes,
                                    CompletionCallback on_complete) {
  const FlowId id = announce_flow(src, dst, bytes);
  if (bytes == 0) {
    sim_.schedule_now([this, id, cb = std::move(on_complete)] {
      MRAPID_TRACE(sim_, sim::TraceCategory::kNet, "net.flow.done", {"flow", id}, {"bytes", 0});
      cb(sim::SimDuration::zero());
    }, "net:zero-flow");
    return id;
  }
  single_leg_.clear();
  single_leg_.push_back(LegStart{id, bytes, std::move(on_complete)});
  start_announced(src, dst, single_leg_);
  return id;
}

void Network::start_announced(NodeId src, NodeId dst, std::vector<LegStart>& legs) {
  assert(!legs.empty());
  advance_progress();
  const std::uint32_t slot = alloc_slot();
  Flow& flow = slab_[slot];
  flow.src = src;
  flow.dst = dst;
  flow.rate_bps = 0.0;
  flow.started = sim_.now();
  flow.active = true;
  flow.assigned_round = 0;
  flow.legs.clear();
  flow.live_legs = 0;
  for (LegStart& start : legs) {
    assert(start.bytes > 0);
    Leg& leg = flow.legs.emplace_back();
    leg.id = start.id;
    leg.remaining_bytes = static_cast<double>(start.bytes);
    leg.total_bytes = start.bytes;
    leg.on_complete = std::move(start.on_complete);
    leg.live = true;
    slot_of_.emplace(leg.id, slot);
    ++flow.live_legs;
    ++stats_.flows_started;
  }
  legs.clear();
  active_legs_ += flow.live_legs;
  set_path(flow, src, dst);
  push_back_slot(slot);
  ++active_count_;
  for (std::uint8_t i = 0; i < flow.path_len; ++i) link_flows_[flow.path[i]].push_back(slot);
  assign_rates();
  replan();
}

bool Network::cancel(FlowId id) {
  advance_progress();
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  const std::uint32_t slot = it->second;
  Flow& flow = slab_[slot];
  for (Leg& leg : flow.legs) {
    if (leg.live && leg.id == id) {
      kill_leg(flow, leg);
      break;
    }
  }
  if (flow.live_legs == 0) remove_flow(slot);
  assign_rates();
  replan();
  return true;
}

Rate Network::flow_rate(FlowId id) const {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return Rate{0.0};
  return Rate{slab_[it->second].rate_bps};
}

void Network::advance_progress() {
  const sim::SimTime now = sim_.now();
  // Zero active flows: nothing to integrate, just move the clock.
  if (now > last_update_ && active_count_ > 0) {
    const double elapsed = (now - last_update_).as_seconds();
    for (std::uint32_t slot = head_; slot != kNoSlot; slot = slab_[slot].next) {
      Flow& f = slab_[slot];
      for (Leg& leg : f.legs) {
        if (!leg.live) continue;
        leg.remaining_bytes = std::max(0.0, leg.remaining_bytes - f.rate_bps * elapsed);
      }
    }
  }
  last_update_ = now;
}

void Network::assign_rates() {
  // Progressive filling: repeatedly find the most constrained link,
  // freeze its unassigned flows at the link's fair share, subtract,
  // and continue with the remaining flows and residual capacities.
  //
  // Only the links active flows cross participate, and a lazy
  // min-heap over (share, link) finds each round's bottleneck. Stale
  // heap entries are skipped by recomputing the link's current share
  // and comparing exactly: a popped entry that matches the current
  // share is, by the heap property, the minimum current share with the
  // lowest link index.
  //
  // Capacity is split between *legs*: a k-leg bundle counts k times on
  // every link it crosses and, when frozen, subtracts the share once
  // per leg (legs outer, links inner), the same FP operations in the
  // same order as k single-leg flows inserted back-to-back.
  ++stats_.replans;
  const std::uint64_t round = ++round_;
  touched_.clear();
  for (std::uint32_t slot = head_; slot != kNoSlot; slot = slab_[slot].next) {
    const Flow& f = slab_[slot];
    for (std::uint8_t i = 0; i < f.path_len; ++i) {
      const LinkIndex l = f.path[i];
      if (unassigned_on_link_[l] == 0) {
        touched_.push_back(l);
        residual_[l] = link_capacity_bps_[l];
      }
      unassigned_on_link_[l] += static_cast<int>(f.live_legs);
    }
  }
  share_heap_.clear();
  const auto cmp = std::greater<std::pair<double, LinkIndex>>{};
  for (const LinkIndex l : touched_) {
    share_heap_.emplace_back(residual_[l] / unassigned_on_link_[l], l);
  }
  std::make_heap(share_heap_.begin(), share_heap_.end(), cmp);

  std::size_t remaining = active_legs_;
  while (remaining > 0) {
    assert(!share_heap_.empty());
    std::pop_heap(share_heap_.begin(), share_heap_.end(), cmp);
    const auto [share, bottleneck] = share_heap_.back();
    share_heap_.pop_back();
    ++stats_.links_scanned;
    if (unassigned_on_link_[bottleneck] == 0) continue;
    if (residual_[bottleneck] / unassigned_on_link_[bottleneck] != share) continue;  // stale
    for (const std::uint32_t slot : link_flows_[bottleneck]) {
      Flow& f = slab_[slot];
      if (f.assigned_round == round) continue;
      f.rate_bps = share;
      f.assigned_round = round;
      remaining -= f.live_legs;
      // One heap refresh per (leg, link) subtraction, so a k-leg
      // bundle freezes exactly as k single-leg flows in a row would.
      for (const Leg& leg : f.legs) {
        if (!leg.live) continue;
        for (std::uint8_t i = 0; i < f.path_len; ++i) {
          const LinkIndex l = f.path[i];
          residual_[l] = std::max(0.0, residual_[l] - share);
          if (--unassigned_on_link_[l] > 0) {
            share_heap_.emplace_back(residual_[l] / unassigned_on_link_[l], l);
            std::push_heap(share_heap_.begin(), share_heap_.end(), cmp);
          }
        }
      }
    }
  }
  for (const LinkIndex l : touched_) unassigned_on_link_[l] = 0;
}

void Network::replan() {
  if (completion_event_.valid()) {
    sim_.cancel(completion_event_);
    completion_event_ = sim::EventId{};
  }
  if (active_count_ == 0) return;
  double eta = std::numeric_limits<double>::infinity();
  for (std::uint32_t slot = head_; slot != kNoSlot; slot = slab_[slot].next) {
    const Flow& f = slab_[slot];
    if (f.rate_bps <= 0) continue;
    for (const Leg& leg : f.legs) {
      if (leg.live) eta = std::min(eta, leg.remaining_bytes / f.rate_bps);
    }
  }
  assert(eta != std::numeric_limits<double>::infinity());
  completion_event_ = sim_.schedule_after(sim::SimDuration::seconds_ceil(std::max(0.0, eta)),
                                          [this] { on_completion_event(); }, "net:finish");
}

void Network::on_completion_event() {
  completion_event_ = sim::EventId{};
  advance_progress();
  struct Done {
    FlowId id;
    Bytes total_bytes;
    sim::SimTime started;
    CompletionCallback on_complete;
  };
  std::vector<Done> done;
  for (std::uint32_t slot = head_; slot != kNoSlot;) {
    const std::uint32_t next = slab_[slot].next;
    Flow& f = slab_[slot];
    for (Leg& leg : f.legs) {
      if (!leg.live || leg.remaining_bytes > kEpsilonBytes) continue;
      done.push_back(Done{leg.id, leg.total_bytes, f.started, std::move(leg.on_complete)});
      kill_leg(f, leg);
    }
    if (f.live_legs == 0) remove_flow(slot);
    slot = next;
  }
  assign_rates();
  replan();
  for (Done& f : done) {
    bytes_delivered_ += f.total_bytes;
    MRAPID_TRACE(sim_, sim::TraceCategory::kNet, "net.flow.done", {"flow", f.id},
                 {"bytes", f.total_bytes});
    if (f.on_complete) f.on_complete(sim_.now() - f.started);
  }
}

}  // namespace mrapid::cluster
