#include "workloads/dataset_cache.h"

#include <exception>
#include <utility>

namespace mrapid::wl {

namespace {
thread_local int derived_bypasses = 0;  // DerivedBypass guards alive on this thread
}  // namespace

DatasetCache::DerivedBypass::DerivedBypass() { ++derived_bypasses; }
DatasetCache::DerivedBypass::~DerivedBypass() { --derived_bypasses; }

DatasetCache& DatasetCache::instance() {
  static DatasetCache cache;
  return cache;
}

std::shared_ptr<const void> DatasetCache::acquire(const DatasetKey& key,
                                                  const std::function<Built()>& build) {
  if (key.derived() && derived_bypasses > 0) return build().data;
  std::unique_lock lock(mutex_);
  if (auto it = slots_.find(key); it != slots_.end()) {
    ++stats_.hits;
    it->second.last_use = ++clock_;
    const std::shared_future<std::shared_ptr<const void>> ready = it->second.ready;
    lock.unlock();
    return ready.get();  // waits while another thread builds it
  }

  // Claim the key, then build outside the lock. An unbuilt slot is
  // never evicted, so it is still ours when the build returns.
  static_assert(kSlotOverheadBytes >= sizeof(std::pair<const DatasetKey, Slot>) +
                                          4 * sizeof(void*) +  // tree node links
                                          sizeof(std::pair<const void*, std::uint64_t>) +
                                          2 * sizeof(void*));  // index node link, bucket
  ++stats_.misses;
  std::promise<std::shared_ptr<const void>> promise;
  Slot& claimed = slots_[key];
  claimed.ready = promise.get_future().share();
  claimed.last_use = ++clock_;
  lock.unlock();

  Built built;
  try {
    built = build();
  } catch (...) {
    lock.lock();
    slots_.erase(key);
    lock.unlock();
    promise.set_exception(std::current_exception());
    throw;
  }

  // The serial is in place before any waiter sees the data, so every
  // holder of a cached entry reads its serial.
  lock.lock();
  Slot& slot = slots_.at(key);
  slot.bytes = built.bytes + kSlotOverheadBytes + key.inputs.size() * sizeof(std::uint64_t);
  slot.serial = ++last_serial_;
  slot.address = built.data.get();
  if (slot.address != nullptr) serials_[slot.address] = slot.serial;
  resident_[key.derived()] += slot.bytes;
  evict_over_budget(key.derived());
  lock.unlock();
  promise.set_value(built.data);
  return std::move(built.data);
}

void DatasetCache::evict_over_budget(bool derived) {
  // Results of cached entries go first, least recently used first: one
  // is rebuilt from entries that are still cached, so they never push
  // out the map outputs they are computed from.
  const auto order = [](const auto& entry) {
    return std::pair(!entry.first.of_entries(), entry.second.last_use);
  };
  while (resident_[derived] > kBudgetBytes) {
    auto oldest = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->second.serial != 0 && it->first.derived() == derived &&
          (oldest == slots_.end() || order(*it) < order(*oldest))) {
        oldest = it;
      }
    }
    if (oldest == slots_.end()) return;
    serials_.erase(oldest->second.address);
    resident_[derived] -= oldest->second.bytes;
    slots_.erase(oldest);
    ++stats_.evictions;
  }
}

std::uint64_t DatasetCache::serial_of(const void* data) const {
  if (derived_bypasses > 0 || data == nullptr) return 0;
  std::lock_guard lock(mutex_);
  const auto it = serials_.find(data);
  return it == serials_.end() ? 0 : it->second;
}

std::size_t DatasetCache::resident_bytes() const {
  std::lock_guard lock(mutex_);
  return resident_[0] + resident_[1];
}

DatasetCache::Stats DatasetCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace mrapid::wl
