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
  promise.set_value(built.data);

  lock.lock();
  Slot& slot = slots_.at(key);
  slot.bytes = built.bytes;
  slot.built = true;
  resident_[key.derived()] += built.bytes;
  evict_over_budget(key.derived());
  return std::move(built.data);
}

void DatasetCache::evict_over_budget(bool derived) {
  while (resident_[derived] > kBudgetBytes) {
    auto oldest = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->second.built && it->first.derived() == derived &&
          (oldest == slots_.end() || it->second.last_use < oldest->second.last_use)) {
        oldest = it;
      }
    }
    if (oldest == slots_.end()) return;
    resident_[derived] -= oldest->second.bytes;
    slots_.erase(oldest);
    ++stats_.evictions;
  }
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
