#pragma once

// A hierarchical timer wheel for periodic, batch-friendly events
// (NodeManager heartbeats, liveness monitors), layered *beside* the
// slab EventQueue rather than replacing it.
//
// Why a second structure: a 10k-node cluster keeps 10k outstanding
// heartbeat events alive at all times. In the slab queue each of them
// is an O(log n) heap push + pop per period against a 10k-entry heap.
// A wheel makes both ends O(1): an event lands in the slot bucket of
// its tick (1 tick = 2^10 us, so staggered 1 s heartbeats spread ~10
// entries per slot at 10k nodes) and fires when the cursor drains that
// slot — one small batch sort instead of 10k independent heap walks.
//
// Determinism contract (the reason this file is subtle): the simulator
// orders same-instant events by a global sequence number, and golden
// traces pin that order byte for byte. The wheel therefore does NOT
// own a sequence counter — Simulation::schedule_timer draws the seq
// from the EventQueue's counter at the call site, and run_until()
// merges the queue head and the wheel head on the identical (time, seq)
// key, so timers and plain events dispatch as one queue would order
// them. tests/timer_wheel_diff_test.cc (against a sorted-scan
// reference) and sim_test's merged-dispatch case hold this to the
// letter.
//
// Structure: 4 levels x 256 slots, level-0 granularity 2^10 us
// (~1 ms). Level l spans 2^(10 + 8*(l+1)) us: L0 ~0.27 s, L1 ~69 s,
// L2 ~4.9 h, L3 ~52 days; anything farther sits in an overflow list
// (drained on the ~never L3 wrap). Crossing a slot boundary cascades
// the matching higher-level slot down, re-bucketing its entries —
// classic hashed hierarchical wheel, except the cursor is event-driven
// (advanced by next_key()) instead of tick-driven, so an idle wheel
// costs nothing.
//
// Cancellation is lazy, as in the slab queue: a cancelled record keeps
// its slot until its bucket drains, which for a wheel is bounded by
// the entry's own deadline. EventIds are generation-stamped and carry
// a tag bit so Simulation::cancel can route them here.

#include <array>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace mrapid::sim {

class TimerWheel {
 public:
  // (time, seq) — the global dispatch key shared with EventQueue.
  struct Key {
    SimTime time = SimTime::max();
    std::uint64_t seq = UINT64_MAX;
  };

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t cascaded = 0;   // entries re-bucketed on a boundary
    std::uint64_t slots_drained = 0;
    std::size_t max_batch = 0;    // largest single-slot drain
    std::size_t slab_capacity = 0;
  };

  // `seq` must come from the shared EventQueue counter (take_seq()).
  EventId schedule(SimTime at, std::uint64_t seq, EventCallback callback, EventLabel label = {});

  // Returns true if the event existed and had not yet fired. Only
  // wheel-tagged ids (is_wheel_id) belong here.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // Key of the earliest live entry (SimTime::max() key when empty).
  // Advances the cursor / cascades as needed; amortized cheap.
  Key next_key();

  // Pops the earliest live entry. Precondition: !empty().
  EventQueue::Fired pop();

  const Stats& stats() const { return stats_; }

  // Wheel EventIds set the tag bit so Simulation::cancel can route
  // without a table. Queue ids only collide after 2^31 reuses of a
  // single slab slot (~2e9 pushes through one slot) — far beyond any
  // run this simulator makes.
  static constexpr std::uint64_t kIdTag = 1ull << 63;
  static constexpr bool is_wheel_id(EventId id) { return (id.value & kIdTag) != 0; }

 private:
  static constexpr int kTickShift = 10;  // 1 tick = 1024 us
  static constexpr int kSlotBits = 8;
  static constexpr std::size_t kSlots = 1u << kSlotBits;  // 256 per level
  static constexpr int kLevels = 4;
  static constexpr std::uint64_t kSlotMask = kSlots - 1;

  struct Record {
    EventCallback callback;
    EventLabel label;
    SimTime time;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    bool live = false;
    bool in_due = false;  // sitting in due_, so cancel must fix due_live_
  };

  struct Level {
    std::array<std::vector<std::uint32_t>, kSlots> buckets;
    std::array<std::uint64_t, kSlots / 64> occupied{};  // bitmap over buckets
  };

  static std::uint64_t tick_of(SimTime t) {
    return static_cast<std::uint64_t>(t.as_micros()) >> kTickShift;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  // Buckets `slot` by its record's tick relative to cursor_ (to a
  // wheel level, the overflow list, or straight into due_).
  void place(std::uint32_t slot);
  void drain_bucket(Level& level, std::size_t index, bool to_due);
  // Advances cursor_ until due_ holds a live entry or the wheel is
  // out of live entries.
  void advance();
  // Called when ++cursor_ lands on a window start: eagerly cascades
  // the entered window's bucket (and promotes overflow on a full-span
  // cross) so later place() calls can trust the lower levels.
  void enter_window();
  void mark_occupied(int level, std::size_t index);
  void clear_occupied(int level, std::size_t index);
  // Smallest occupied bucket index >= from at `level`; kSlots if none.
  std::size_t next_occupied(int level, std::size_t from) const;

  std::array<Level, kLevels> levels_;
  std::vector<std::uint32_t> overflow_;  // beyond L3's horizon
  std::uint64_t cursor_ = 0;             // next tick to examine

  std::vector<Record> slab_;
  std::vector<std::uint32_t> free_slots_;

  // Drained-but-not-fired entries, ascending (time, seq). due_head_
  // avoids front-erase; the vector is compacted when it empties.
  std::vector<std::uint32_t> due_;
  std::size_t due_head_ = 0;
  std::size_t due_live_ = 0;

  std::size_t live_ = 0;  // live entries anywhere (due_ included)
  Stats stats_;
};

}  // namespace mrapid::sim
