#include "mapreduce/am_slots.h"

#include <algorithm>

#include "mapreduce/am_base.h"

namespace mrapid::mr {

// The world is going away: no callback runs again, so parked and
// running AMs alike are freed. Defined here, where AmBase is complete.
AmSlots::~AmSlots() = default;

AmRef AmSlots::insert(std::unique_ptr<AmBase> am) {
  drain();
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.am = std::move(am);
  const AmRef ref{this, slot, s.gen};
  s.am->self_ = ref;
  return ref;
}

void AmSlots::release(AmRef ref) {
  AmBase* am = ref.owner == this ? resolve(ref.slot, ref.gen) : nullptr;
  if (am == nullptr) return;
  if (std::find(parked_.begin(), parked_.end(), ref.slot) != parked_.end()) return;
  if (am->quiescent()) {
    free_slot(ref.slot);
  } else {
    parked_.push_back(ref.slot);
  }
}

void AmSlots::drain() {
  std::erase_if(parked_, [this](std::uint32_t slot) {
    if (!slots_[slot].am->quiescent()) return false;
    free_slot(slot);
    return true;
  });
}

void AmSlots::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  s.am.reset();
  free_.push_back(slot);
}

}  // namespace mrapid::mr
