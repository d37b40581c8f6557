#include "workloads/workload.h"

#include <string_view>

namespace mrapid::wl {

std::shared_ptr<const void> Workload::reduce_runs(DatasetKey::Kind kind,
                                                  std::span<const mr::MapOutcome> maps,
                                                  const std::function<DatasetCache::Built()>& merge) {
  std::vector<const std::shared_ptr<const void>*> runs;
  for (const mr::MapOutcome& map : maps) {
    if (map.data) runs.push_back(&map.data);
  }
  if (runs.size() == 1) return *runs.front();  // already the answer; share it
  if (runs.empty()) return merge().data;        // nothing worth keeping
  DatasetCache& cache = DatasetCache::instance();
  std::vector<std::uint64_t> serials;
  serials.reserve(runs.size());
  for (const std::shared_ptr<const void>* run : runs) {
    const std::uint64_t serial = cache.serial_of(run->get());
    if (serial == 0) return merge().data;
    serials.push_back(serial);
  }
  // Only the reduce's root is cached, so a reduce holds one entry
  // however many runs its merge combines.
  return cache.acquire(DatasetKey::reduce(kind, std::move(serials)), merge);
}

std::uint64_t Workload::fold_partitions(const mr::JobResult& result,
                                        std::optional<DatasetKey::Kind> step,
                                        const FoldPartition& fold) {
  DatasetCache& cache = DatasetCache::instance();
  Fnv64 digest;
  digest.mix(static_cast<std::uint64_t>(result.reduce_results.size()));
  for (const std::shared_ptr<const void>& partition : result.reduce_results) {
    if (!partition) {
      digest.mix(std::string_view("<null partition>"));
      continue;
    }
    const std::uint64_t serial = step ? cache.serial_of(partition.get()) : 0;
    if (serial == 0) {
      fold(digest, partition.get());
      continue;
    }
    const std::uint64_t from = digest.value();
    const std::shared_ptr<const std::uint64_t> to = cache.acquire_as<std::uint64_t>(
        DatasetKey::digest_step(*step, from, serial), [&] {
          Fnv64 stepped = Fnv64::resume(from);
          fold(stepped, partition.get());
          return DatasetCache::Built{std::make_shared<const std::uint64_t>(stepped.value()),
                                     sizeof(std::uint64_t)};
        });
    digest = Fnv64::resume(*to);
  }
  return digest.value();
}

}  // namespace mrapid::wl
