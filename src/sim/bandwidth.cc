#include "sim/bandwidth.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace mrapid::sim {

namespace {
// Transfers whose fluid remainder drops below this are considered done.
constexpr double kEpsilonBytes = 1e-6;

constexpr std::uint64_t pack_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) | (static_cast<std::uint64_t>(slot) + 1);
}
}  // namespace

BandwidthResource::BandwidthResource(Simulation& sim, std::string name, Rate capacity,
                                     Rate per_transfer_cap, double contention_alpha)
    : sim_(sim), name_(std::move(name)), capacity_(capacity),
      per_transfer_cap_(per_transfer_cap), contention_alpha_(contention_alpha) {
  assert(capacity.valid());
  assert(contention_alpha >= 0.0);
}

double BandwidthResource::share_for(const Transfer& transfer) const {
  const std::size_t n = std::max<std::size_t>(1, active_count_);
  double share = capacity_.bytes_per_sec / static_cast<double>(n);
  if (per_transfer_cap_.valid()) share = std::min(share, per_transfer_cap_.bytes_per_sec);
  share /= 1.0 + transfer.contention_alpha * static_cast<double>(n - 1);
  return share;
}

Rate BandwidthResource::current_share() const {
  Transfer probe{};
  probe.contention_alpha = contention_alpha_;
  return Rate{share_for(probe)};
}

double BandwidthResource::busy_seconds() const {
  double total = busy_seconds_;
  if (active_count_ > 0) total += (sim_.now() - busy_since_).as_seconds();
  return total;
}

BandwidthResource::TransferId BandwidthResource::start(Bytes bytes, CompletionCallback on_complete) {
  return start(bytes, contention_alpha_, std::move(on_complete));
}

BandwidthResource::TransferId BandwidthResource::start(Bytes bytes, double contention_alpha,
                                                       CompletionCallback on_complete) {
  assert(bytes >= 0);
  assert(contention_alpha >= 0.0);
  if (bytes == 0) {
    sim_.schedule_now([cb = std::move(on_complete)] { cb(SimDuration::zero()); },
                      EventLabel(name_, ":zero-transfer"));
    // Zero-byte transfers never occupy a slot; their ids keep the low
    // 32 bits clear so cancel() rejects them without a slab probe.
    return next_zero_token_++ << 32;
  }
  advance_progress();
  if (active_count_ == 0) busy_since_ = sim_.now();

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(transfers_.size());
    transfers_.emplace_back();
  }
  Transfer& t = transfers_[slot];
  ++t.gen;
  t.active = true;
  t.seq = next_seq_++;
  t.remaining_bytes = static_cast<double>(bytes);
  t.started = sim_.now();
  t.total_bytes = bytes;
  t.contention_alpha = contention_alpha;
  t.on_complete = std::move(on_complete);
  ++active_count_;
  replan();
  return pack_id(slot, t.gen);
}

void BandwidthResource::set_capacity(Rate capacity) {
  assert(capacity.valid());
  advance_progress();
  capacity_ = capacity;
  replan();
}

void BandwidthResource::release_slot(std::uint32_t slot) {
  Transfer& t = transfers_[slot];
  t.active = false;
  t.on_complete = nullptr;
  free_slots_.push_back(slot);
  assert(active_count_ > 0);
  --active_count_;
}

bool BandwidthResource::cancel(TransferId id) {
  advance_progress();
  const std::uint64_t slot_plus_1 = id & 0xFFFFFFFFull;
  if (slot_plus_1 == 0 || slot_plus_1 > transfers_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(slot_plus_1 - 1);
  Transfer& t = transfers_[slot];
  if (!t.active || t.gen != static_cast<std::uint32_t>(id >> 32)) return false;
  release_slot(slot);
  if (active_count_ == 0) busy_seconds_ += (sim_.now() - busy_since_).as_seconds();
  replan();
  return true;
}

void BandwidthResource::advance_progress() {
  const SimTime now = sim_.now();
  if (now > last_update_ && active_count_ > 0) {
    const double elapsed = (now - last_update_).as_seconds();
    for (auto& t : transfers_) {
      if (!t.active) continue;
      t.remaining_bytes = std::max(0.0, t.remaining_bytes - share_for(t) * elapsed);
    }
  }
  last_update_ = now;
}

void BandwidthResource::replan() {
  if (completion_event_.valid()) {
    sim_.cancel(completion_event_);
    completion_event_ = EventId{};
  }
  if (active_count_ == 0) return;
  double eta_seconds = std::numeric_limits<double>::infinity();
  for (const auto& t : transfers_) {
    if (!t.active) continue;
    eta_seconds = std::min(eta_seconds, t.remaining_bytes / share_for(t));
  }
  eta_seconds = std::max(0.0, eta_seconds);
  completion_event_ = sim_.schedule_after(SimDuration::seconds_ceil(eta_seconds),
                                          [this] { on_completion_event(); },
                                          EventLabel(name_, ":finish"));
}

void BandwidthResource::on_completion_event() {
  completion_event_ = EventId{};
  advance_progress();
  // Collect all transfers that finished at this instant (ties are
  // common when identical transfers start together) into the reused
  // scratch buffer, then sort by start order: callbacks must fire in
  // the same FIFO order the pre-slab erase-in-place loop produced.
  done_.clear();
  for (std::uint32_t slot = 0; slot < transfers_.size(); ++slot) {
    Transfer& t = transfers_[slot];
    if (!t.active || t.remaining_bytes > kEpsilonBytes) continue;
    done_.push_back(std::move(t));
    release_slot(slot);
  }
  if (active_count_ == 0 && !done_.empty()) {
    busy_seconds_ += (sim_.now() - busy_since_).as_seconds();
  }
  std::sort(done_.begin(), done_.end(),
            [](const Transfer& a, const Transfer& b) { return a.seq < b.seq; });
  replan();
  for (auto& t : done_) {
    bytes_served_ += t.total_bytes;
    const SimDuration elapsed = sim_.now() - t.started;
    if (t.on_complete) t.on_complete(elapsed);
  }
  // Drop the fired callbacks (and whatever they captured) now rather
  // than at this resource's next completion; the capacity stays.
  done_.clear();
}

}  // namespace mrapid::sim
