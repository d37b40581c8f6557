#include "sim/periodic_lane.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mrapid::sim {

PeriodicLane::Member PeriodicLane::join(SimDuration period, SimTime now, SimTime first,
                                        std::uint64_t seq, EventCallback callback,
                                        EventLabel label) {
  assert(period > SimDuration::zero());
  assert(callback);
  compact();
  if (ring_.empty()) {
    period_us_ = period.as_micros();
    pos_ = 0;
    log_.clear();
  }
  assert(period.as_micros() == period_us_ && "the periodic lane has one period");
  assert(first >= now && first <= now + period && "a first beat lies within one period");
  rebase();

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    stats_.slab_capacity = slots_.size();
  }
  Slot& s = slots_[slot];
  ++s.gen;  // handles from the slot's previous lives stop matching
  s.callback = std::move(callback);
  s.label = label;
  s.last_fire = now;
  s.member = true;
  s.parked = false;
  ++stats_.joined;

  // The ring is rebased, so every key belongs to lap 0 and the ring is
  // sorted on (time, key). The join's key is the largest handed out so
  // far, but a member inside its own beat holds the pending key kNone.
  const Entry entry{first.as_micros(), real_key(seq), 0, slot};
  auto before = [](const Entry& a, const Entry& b) {
    return a.time_us != b.time_us ? a.time_us < b.time_us : a.key < b.key;
  };
  if (ring_.empty() || !before(entry, ring_.back())) {
    // Boot: staggered first beats arrive in order and append.
    s.index = static_cast<std::uint32_t>(ring_.size());
    ring_.push_back(entry);
    if (unparked_bits_.size() * 64 < ring_.size()) unparked_bits_.push_back(0);
    unparked_bits_[s.index / 64] |= 1ull << (s.index % 64);
    ++unparked_;
  } else {
    ring_.insert(std::upper_bound(ring_.begin(), ring_.end(), entry, before), entry);
    reindex();
  }
  return handle(slot);
}

bool PeriodicLane::leave(Member member) {
  Slot* s = find(member);
  if (s == nullptr) return false;
  // The entry stays in place, dead, until the ring is next used: a
  // burst of leaves (teardown) then costs one pass.
  ring_[s->index].slot = kDead;
  ++dead_;
  if (!s->parked) {
    unparked_bits_[s->index / 64] &= ~(1ull << (s->index % 64));
    --unparked_;
  }
  s->member = false;
  s->callback = nullptr;  // release captured state promptly
  free_slots_.push_back(static_cast<std::uint32_t>(s - slots_.data()));
  ++stats_.cancelled;
  return true;
}

void PeriodicLane::drop_dead() {
  rebase();
  std::erase_if(ring_, [](const Entry& e) { return e.slot == kDead; });
  dead_ = 0;
  reindex();
}

bool PeriodicLane::contains(Member member) const { return find(member) != nullptr; }

PeriodicLane::Member PeriodicLane::handle(std::uint32_t slot) const {
  return Member{(static_cast<std::uint64_t>(slots_[slot].gen) << 32) |
                (static_cast<std::uint64_t>(slot) + 1)};
}

PeriodicLane::Slot* PeriodicLane::find(Member member) {
  return const_cast<Slot*>(static_cast<const PeriodicLane*>(this)->find(member));
}

const PeriodicLane::Slot* PeriodicLane::find(Member member) const {
  const std::uint64_t slot_plus_1 = member.value & 0xFFFFFFFFull;
  if (slot_plus_1 == 0 || slot_plus_1 > slots_.size()) return nullptr;
  const Slot& s = slots_[slot_plus_1 - 1];
  if (!s.member || s.gen != static_cast<std::uint32_t>(member.value >> 32)) return nullptr;
  return &s;
}

void PeriodicLane::set_parked(Member member, bool parked) {
  Slot* s = find(member);
  if (s == nullptr || s->parked == parked) return;
  s->parked = parked;
  const std::uint64_t bit = 1ull << (s->index % 64);
  if (parked) {
    unparked_bits_[s->index / 64] &= ~bit;
    --unparked_;
  } else {
    unparked_bits_[s->index / 64] |= bit;
    ++unparked_;
  }
}

SimTime PeriodicLane::last_fire(Member member) const {
  const Slot* s = find(member);
  assert(s != nullptr);
  const std::uint64_t n = ring_.size();
  if (pos_ <= s->index) return s->last_fire;  // no beat of this entry since the rebase
  return time_of(s->index + n * ((pos_ - 1 - s->index) / n));
}

SimTime PeriodicLane::time_of(std::uint64_t beat) const {
  const std::uint64_t n = ring_.size();
  return SimTime::from_micros(ring_[beat % n].time_us +
                              static_cast<std::int64_t>(beat / n) * period_us_);
}

std::uint64_t PeriodicLane::key_of(std::uint64_t beat) const {
  const std::uint64_t n = ring_.size();
  const Entry& entry = ring_[beat % n];
  if (entry.key_lap == beat / n) return entry.key;
  // The entry's previous beat was passed in bulk: its successor's key
  // is virtual, the counter at that pass.
  assert(beat >= n);
  const auto pass = std::upper_bound(log_.begin(), log_.end(), beat - n,
                                     [](std::uint64_t b, const Pass& p) { return b < p.end; });
  assert(pass != log_.end());
  return 2 * pass->counter;
}

bool PeriodicLane::before(std::uint64_t beat, SimTime time, std::uint64_t key) const {
  const SimTime t = time_of(beat);
  return t != time ? t < time : key_of(beat) < key;
}

SimTime PeriodicLane::head_time() {
  compact();
  return time_of(pos_);
}

bool PeriodicLane::head_before(SimTime time, std::uint64_t seq) {
  compact();
  return before(pos_, time, seq == kThrough ? kThrough : real_key(seq));
}

std::uint64_t PeriodicLane::first_at(std::int64_t time_us) const {
  if (time_of(pos_).as_micros() >= time_us) return pos_;
  // Times never decrease along the beats (the ring spans at most one
  // period), so: the first lap whose last entry reaches time_us, then
  // a binary search of that lap's entries.
  const std::uint64_t n = ring_.size();
  const std::int64_t behind = time_us - ring_.back().time_us;
  std::uint64_t lap =
      behind <= 0 ? 0 : static_cast<std::uint64_t>((behind + period_us_ - 1) / period_us_);
  lap = std::max(lap, pos_ / n);
  const std::int64_t lap_time = time_us - static_cast<std::int64_t>(lap) * period_us_;
  const auto at = std::lower_bound(ring_.begin(), ring_.end(), lap_time,
                                   [](const Entry& e, std::int64_t t) { return e.time_us < t; });
  return std::max(pos_, lap * n + static_cast<std::uint64_t>(at - ring_.begin()));
}

std::uint64_t PeriodicLane::first_not_before(SimTime time, std::uint64_t key,
                                             std::uint64_t counter) const {
  const std::uint64_t lo = first_at(time.as_micros());
  if (time == SimTime::max()) return lo;
  const std::uint64_t hi = first_at(time.as_micros() + 1);
  if (key == kThrough) return hi;
  // Beats in [lo, hi) share `time` and their keys rise with the beat
  // number; a key never equals a queue key (virtual keys are even). A
  // beat a lap or more past the cursor follows one this pass passes,
  // so its key is the virtual key of this pass's counter.
  auto key_at = [&](std::uint64_t beat) {
    return beat >= pos_ + ring_.size() ? 2 * counter : key_of(beat);
  };
  std::uint64_t a = lo, b = hi;
  while (a < b) {
    const std::uint64_t mid = a + (b - a) / 2;
    if (key_at(mid) < key) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return a;
}

std::uint64_t PeriodicLane::next_unparked() const {
  if (unparked_ == 0) return kNone;
  const std::uint64_t n = ring_.size();
  const std::uint64_t start = pos_ % n;
  auto scan = [this](std::uint64_t from, std::uint64_t to) -> std::uint64_t {
    for (std::uint64_t i = from; i < to;) {
      const std::uint64_t word = unparked_bits_[i / 64] >> (i % 64);
      if (word != 0) {
        const std::uint64_t hit = i + static_cast<std::uint64_t>(std::countr_zero(word));
        return hit < to ? hit : kNone;
      }
      i = (i / 64 + 1) * 64;
    }
    return kNone;
  };
  std::uint64_t hit = scan(start, n);
  if (hit != kNone) return pos_ + (hit - start);
  hit = scan(0, start);
  assert(hit != kNone);
  return pos_ + (n - start) + hit;
}

std::uint64_t PeriodicLane::pass_parked(SimTime time, std::uint64_t seq, std::uint64_t counter) {
  if (empty() || awake_) return 0;
  compact();
  const std::uint64_t key = seq == kThrough ? kThrough : real_key(seq);
  const std::uint64_t limit = next_unparked();
  std::uint64_t end;
  if (limit != kNone && before(limit, time, key)) {
    end = limit;
  } else {
    assert((limit != kNone || time != SimTime::max()) && "an endless run of parked beats");
    end = first_not_before(time, key, counter);
  }
  if (end == pos_) return 0;
  // Consecutive passes at one counter value share a log entry; a beat
  // dispatched between them is never looked up (its key is stored).
  if (!log_.empty() && log_.back().counter == counter) {
    log_.back().end = end;
  } else {
    log_.push_back(Pass{end, counter});
  }
  const std::uint64_t passed = end - pos_;
  pos_ = end;
  stats_.elided += passed;
  // Only the last lap's passes can still be asked for.
  const std::uint64_t n = ring_.size();
  while (pos_ >= n && log_.front().end <= pos_ - n) log_.pop_front();
  return passed;
}

PeriodicLane::Beat PeriodicLane::pop_head() {
  compact();
  const std::uint64_t n = ring_.size();
  const std::uint64_t beat = pos_;
  Entry& entry = ring_[beat % n];
  Slot& s = slots_[entry.slot];
  Beat out{time_of(beat), handle(entry.slot), std::move(s.callback), s.label};
  // The successor's key pends until rearm(): it sorts after everything
  // its own beat schedules.
  entry.key = kNone;
  entry.key_lap = beat / n + 1;
  ++pos_;
  ++stats_.fired;
  return out;
}

void PeriodicLane::rearm(Beat& beat, std::uint64_t seq) {
  Slot* s = find(beat.member);
  assert(s != nullptr);
  // A rebase inside the beat kept the pending key and reset its lap,
  // so only the key changes here.
  ring_[s->index].key = real_key(seq);
  s->callback = std::move(beat.callback);
}

void PeriodicLane::rebase() {
  if (pos_ == 0) return;
  const std::uint64_t n = ring_.size();
  std::vector<Entry> next;
  next.reserve(n);
  for (std::uint64_t j = 0; j < n; ++j) {
    const std::uint64_t beat = pos_ + j;
    const Entry& entry = ring_[beat % n];
    if (beat >= n && entry.slot != kDead) slots_[entry.slot].last_fire = time_of(beat - n);
    next.push_back(Entry{time_of(beat).as_micros(), key_of(beat), 0, entry.slot});
  }
  ring_.swap(next);
  pos_ = 0;
  log_.clear();
  reindex();
}

void PeriodicLane::reindex() {
  unparked_bits_.assign((ring_.size() + 63) / 64, 0);
  unparked_ = 0;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].slot == kDead) continue;
    Slot& s = slots_[ring_[i].slot];
    s.index = static_cast<std::uint32_t>(i);
    if (!s.parked) {
      unparked_bits_[i / 64] |= 1ull << (i % 64);
      ++unparked_;
    }
  }
  if (ring_.empty()) {
    pos_ = 0;
    log_.clear();
  }
}

}  // namespace mrapid::sim
