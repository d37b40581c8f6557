#pragma once

// Process-wide cache of generated input datasets: Zipf vocabularies,
// corpus files and TeraGen tables. Generating them is deterministic in
// the generator's parameters, and experiment sweeps build many
// workload instances over the same few datasets (every trial of a
// figure, both SweepRunner workers, every mode), so each dataset is
// built once per process and shared read-only.
//
// Entries are immutable and handed out as shared_ptr<const T>. Above a
// fixed byte budget the least recently used entries are dropped from
// the cache; a workload that still holds one keeps it alive, and the
// next request for that key builds it afresh (same bytes).

#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>

namespace mrapid::wl {

// The full identity of one generated dataset. Fields a kind does not
// use stay zero.
struct DatasetKey {
  enum class Kind : std::uint8_t { kVocabulary, kCorpusFile, kTeraGen };

  Kind kind = Kind::kVocabulary;
  std::uint64_t seed = 0;
  std::uint64_t size = 0;       // vocabulary words, or TeraGen rows
  std::uint64_t zipf_bits = 0;  // the Zipf exponent's bit pattern
  std::int64_t bytes = 0;       // corpus file length
  std::uint64_t index = 0;      // corpus file index

  static DatasetKey vocabulary(std::uint64_t seed, std::size_t words, double zipf_s) {
    return {Kind::kVocabulary, seed, words, std::bit_cast<std::uint64_t>(zipf_s), 0, 0};
  }
  static DatasetKey corpus_file(std::uint64_t seed, std::size_t words, double zipf_s,
                                std::int64_t bytes, std::uint64_t index) {
    return {Kind::kCorpusFile, seed, words, std::bit_cast<std::uint64_t>(zipf_s), bytes, index};
  }
  static DatasetKey teragen(std::uint64_t seed, std::int64_t rows) {
    return {Kind::kTeraGen, seed, static_cast<std::uint64_t>(rows), 0, 0, 0};
  }

  auto operator<=>(const DatasetKey&) const = default;
};

class DatasetCache {
 public:
  // Resident bytes above which least-recently-used entries are evicted.
  static constexpr std::size_t kBudgetBytes = std::size_t{64} << 20;

  // What a builder returns: the dataset and the bytes it occupies.
  struct Built {
    std::shared_ptr<const void> data;
    std::size_t bytes = 0;
  };

  static DatasetCache& instance();

  // The dataset for `key`, calling `build` on a miss. Concurrent
  // requests for one key build it once; the others wait for it. A
  // builder that throws leaves no entry behind, and every waiter sees
  // its exception.
  std::shared_ptr<const void> acquire(const DatasetKey& key, const std::function<Built()>& build);

  template <typename T>
  std::shared_ptr<const T> acquire_as(const DatasetKey& key, const std::function<Built()>& build) {
    return std::static_pointer_cast<const T>(acquire(key, build));
  }

  // Bytes held by built entries.
  std::size_t resident_bytes() const;

  // Requests answered from the cache (including those that waited for
  // another thread's build), requests that built their dataset, and
  // entries dropped over the budget, since the process started.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

 private:
  struct Slot {
    std::shared_future<std::shared_ptr<const void>> ready;
    std::size_t bytes = 0;
    std::uint64_t last_use = 0;
    bool built = false;
  };

  void evict_over_budget();  // requires mutex_

  mutable std::mutex mutex_;  // guards everything below
  std::map<DatasetKey, Slot> slots_;
  std::size_t resident_ = 0;
  std::uint64_t clock_ = 0;
  Stats stats_;
};

}  // namespace mrapid::wl
