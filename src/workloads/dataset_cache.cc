#include "workloads/dataset_cache.h"

#include <exception>
#include <utility>

namespace mrapid::wl {

DatasetCache& DatasetCache::instance() {
  static DatasetCache cache;
  return cache;
}

std::shared_ptr<const void> DatasetCache::acquire(const DatasetKey& key,
                                                  const std::function<Built()>& build) {
  std::unique_lock lock(mutex_);
  if (auto it = slots_.find(key); it != slots_.end()) {
    it->second.last_use = ++clock_;
    const std::shared_future<std::shared_ptr<const void>> ready = it->second.ready;
    lock.unlock();
    return ready.get();  // waits while another thread builds it
  }

  // Claim the key, then build outside the lock. An unbuilt slot is
  // never evicted, so it is still ours when the build returns.
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
  resident_ += built.bytes;
  evict_over_budget();
  return std::move(built.data);
}

void DatasetCache::evict_over_budget() {
  while (resident_ > kBudgetBytes) {
    auto oldest = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->second.built && (oldest == slots_.end() ||
                               it->second.last_use < oldest->second.last_use)) {
        oldest = it;
      }
    }
    if (oldest == slots_.end()) return;
    resident_ -= oldest->second.bytes;
    slots_.erase(oldest);
  }
}

std::size_t DatasetCache::resident_bytes() const {
  std::lock_guard lock(mutex_);
  return resident_;
}

}  // namespace mrapid::wl
