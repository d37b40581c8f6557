#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace mrapid::sim {

std::string EventLabel::str() const {
  std::string out;
  const std::size_t suffix_len = suffix_ == nullptr ? 0 : std::char_traits<char>::length(suffix_);
  out.reserve(prefix_.size() + suffix_len);
  out.append(prefix_);
  if (suffix_len > 0) out.append(suffix_, suffix_len);
  return out;
}

namespace {
constexpr std::uint64_t pack_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) | (static_cast<std::uint64_t>(slot) + 1);
}
}  // namespace

EventId EventQueue::push(SimTime at, EventCallback callback, EventLabel label) {
  std::uint32_t slot;
  if (last_freed_ != kNoSlot) {
    slot = last_freed_;
    last_freed_ = kNoSlot;
  } else if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    stats_.slab_capacity = slab_.size();
  }
  Record& record = slab_[slot];
  ++record.gen;  // stale EventIds from this slot's previous lives stop matching
  record.live = true;
  record.callback = std::move(callback);
  record.label = label;

  heap_.push_back(HeapEntry{at, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  ++live_;
  ++stats_.pushed;
  stats_.heap_peak = std::max(stats_.heap_peak, heap_.size());
  return EventId{pack_id(slot, record.gen)};
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint64_t slot_plus_1 = id.value & 0xFFFFFFFFull;
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  if (slot_plus_1 == 0 || slot_plus_1 > slab_.size()) return false;
  Record& record = slab_[slot_plus_1 - 1];
  if (!record.live || record.gen != gen) return false;
  record.live = false;
  record.callback = nullptr;  // release captured state promptly
  record.label = EventLabel{};
  assert(live_ > 0);
  --live_;
  ++dead_in_heap_;
  ++stats_.cancelled;
  // The slot is normally recycled when its heap entry surfaces; once
  // dead entries dominate (far-future cancels that never will), one
  // O(n) compaction reclaims them all — amortized O(1) per cancel.
  if (dead_in_heap_ > live_ && dead_in_heap_ >= 16) compact();
  return true;
}

void EventQueue::compact() {
  std::size_t out = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const HeapEntry entry = heap_[i];
    if (slab_[entry.slot].live) {
      heap_[out++] = entry;
    } else {
      release_slot(entry.slot);
    }
  }
  heap_.resize(out);
  dead_in_heap_ = 0;
  if (out > 1) {
    for (std::size_t i = (out - 2) / 4 + 1; i-- > 0;) sift_down(i);  // Floyd build-heap
  }
}

void EventQueue::release_slot(std::uint32_t slot) const {
  Record& record = slab_[slot];
  record.live = false;
  record.callback = nullptr;  // release captured state promptly
  // label is left stale: it is POD, owns nothing, and push overwrites it.
  if (last_freed_ == kNoSlot) {
    last_freed_ = slot;
  } else {
    free_slots_.push_back(slot);
  }
}

void EventQueue::sift_up(std::size_t i) const {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::sift_down(std::size_t i) const {
  const HeapEntry entry = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (before(heap_[child], heap_[best])) best = child;
    }
    if (!before(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

void EventQueue::heap_remove_top() const {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Bottom-up deletion: percolate the root hole down to a leaf along
  // minimum children, then drop the former last element in and sift it
  // up. The last element nearly always belongs near the leaves, so
  // this skips the per-level "done yet?" comparison a classic
  // sift_down pays — a measurable win on the pop-dominated churn path.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t child = first + 1; child < end; ++child) {
      if (before(heap_[child], heap_[best])) best = child;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
  sift_up(hole);
}

void EventQueue::drop_cancelled_head() const {
  if (dead_in_heap_ == 0) return;
  while (!heap_.empty() && !slab_[heap_.front().slot].live) {
    release_slot(heap_.front().slot);
    heap_remove_top();
    --dead_in_heap_;
  }
}

SimTime EventQueue::next_time() const {
  drop_cancelled_head();
  return heap_.empty() ? SimTime::max() : heap_.front().time;
}

EventQueue::NextKey EventQueue::next_key() const {
  drop_cancelled_head();
  if (heap_.empty()) return NextKey{};
  return NextKey{heap_.front().time, heap_.front().seq};
}

EventQueue::Fired EventQueue::pop() {
  drop_cancelled_head();
  assert(!heap_.empty());
  const HeapEntry top = heap_.front();
  heap_remove_top();
  Record& record = slab_[top.slot];
  assert(record.live);
  Fired fired{top.time, std::move(record.callback), record.label};
  release_slot(top.slot);  // also marks it fired: a late cancel() misses
  --live_;
  ++stats_.fired;
  return fired;
}

}  // namespace mrapid::sim
