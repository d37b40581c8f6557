#pragma once

// The JobClient's slot map of ApplicationMaster attempts, and the
// generation-checked reference callbacks hold instead of `this`.
//
// Every AM the client builds (plain submissions, AM re-executions and
// the MRapid framework's pool jobs) lives in one slot. Its owner
// releases the slot once the attempt is terminal and the client has
// been told; the AM is then freed as soon as no task callback can
// still reach it (AmBase::quiescent), or parked until the next
// insert() finds it quiescent. Freeing bumps the slot's generation, so
// every AmRef to the old tenant resolves to null from then on: a
// callback that outlives its AM does nothing, as EventId and
// ReduceRunner's FetchRecord already behave. A parked AM still
// resolves, so its callbacks run exactly as they did before release.

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace mrapid::mr {

class AmBase;
class AmSlots;

// {owner, slot, gen}: 16 bytes and trivially copyable, so a callback
// capturing only an AmRef fits std::function's local storage.
struct AmRef {
  AmSlots* owner = nullptr;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;

  // The AM, or null once its slot was freed.
  AmBase* get() const;
  template <class T>
  T* as() const {
    return static_cast<T*>(get());
  }
  // For callers that know the attempt is still held (tests, the
  // owner's own bookkeeping).
  AmBase* operator->() const {
    AmBase* am = get();
    assert(am != nullptr && "stale AmRef");
    return am;
  }
  AmBase& operator*() const { return *operator->(); }
};

class AmSlots {
 public:
  AmSlots() = default;
  ~AmSlots();  // frees every AM still held, parked or not

  AmSlots(const AmSlots&) = delete;
  AmSlots& operator=(const AmSlots&) = delete;

  // Takes ownership and hands the AM its own reference. Also frees the
  // parked AMs that have become quiescent since their release.
  AmRef insert(std::unique_ptr<AmBase> am);

  AmBase* resolve(std::uint32_t slot, std::uint32_t gen) const {
    if (slot >= slots_.size()) return nullptr;
    const Slot& s = slots_[slot];
    return s.gen == gen ? s.am.get() : nullptr;
  }

  // The attempt is terminal and its owner has been told. Must not be
  // called from inside the AM's own call stack. Idempotent; stale refs
  // are ignored.
  void release(AmRef ref);

  // AMs currently held: running, or released but still parked.
  std::size_t live() const { return slots_.size() - free_.size(); }
  std::size_t parked() const { return parked_.size(); }

 private:
  struct Slot {
    std::unique_ptr<AmBase> am;
    std::uint32_t gen = 1;
  };

  void free_slot(std::uint32_t slot);
  void drain();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> parked_;  // released, waiting to go quiet
};

inline AmBase* AmRef::get() const { return owner == nullptr ? nullptr : owner->resolve(slot, gen); }

}  // namespace mrapid::mr
