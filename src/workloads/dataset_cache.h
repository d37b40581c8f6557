#pragma once

// Process-wide cache of generated input datasets (Zipf vocabularies,
// corpus files, TeraGen tables) and of the results derived from them
// (each map split's output, TeraSort's partition boundaries, reduce
// outputs and result-digest steps). Generating, mapping, reducing and
// digesting are deterministic in their inputs, and experiment sweeps
// and job streams build many workload instances over the same few
// datasets and splits (every trial of a figure, both SweepRunner
// workers, every mode, every job of a tenant), so each entry is built
// once per process and shared read-only.
//
// Entries are immutable and handed out as shared_ptr<const T>. Every
// built entry gets a process-unique serial, which serial_of() finds
// from the entry's data address. A result computed from cached entries
// is keyed by their serials: a reduce by the ordered list of its input
// runs' serials, a digest step by its partition's serial. Data that is
// not a cached entry (a shard cut for one of several reducers, a
// reduce over such shards) reads serial 0 and is computed afresh.
//
// Inputs and derived results each have a fixed byte budget, charged
// with each entry's payload plus a fixed bookkeeping cost per slot,
// and above it the class's least recently used entries are dropped
// from the cache, so a large input never pushes out the small outputs
// that spare rebuilding it, and outputs never crowd out the inputs a
// sweep is still mapping. Within the derived class, reduce outputs and
// digest steps go before any map output, so they never crowd out the
// map outputs they are computed from. A workload asks for a split's output before
// the input it is derived from, so a memoized split never regenerates
// an evicted input. A workload that still holds an entry keeps it
// alive, but an evicted entry loses its serial, and the next request
// for that key builds it afresh (same bytes, new serial).

#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mrapid::wl {

// The full identity of one cached dataset. Fields a kind does not use
// stay zero; a map-derived kind carries its input's fields too, and a
// kind derived from cached entries names them by serial.
struct DatasetKey {
  enum class Kind : std::uint8_t {
    // Generated inputs.
    kVocabulary,
    kCorpusFile,
    kTeraGen,
    // Outputs derived from an input.
    kWordCountMap,
    kTeraSortMap,
    kTeraSortBounds,
    kPiMap,
    // Results derived from cached entries.
    kWordCountReduce,
    kTeraSortReduce,
    kWordCountDigest,
    kTeraSortDigest,
  };

  Kind kind = Kind::kVocabulary;
  std::uint64_t seed = 0;
  std::uint64_t size = 0;       // vocabulary words, or TeraGen rows
  std::uint64_t zipf_bits = 0;  // the Zipf exponent's bit pattern
  std::int64_t bytes = 0;       // corpus file length
  std::uint64_t index = 0;      // corpus file index, or reducer count
  std::int64_t offset = 0;      // split offset, or the first Halton index
  std::int64_t length = 0;      // split length, or the evaluated points
  std::vector<std::uint64_t> inputs = {};  // a reduce's input serials, in order

  static DatasetKey vocabulary(std::uint64_t seed, std::size_t words, double zipf_s) {
    return {Kind::kVocabulary, seed, words, std::bit_cast<std::uint64_t>(zipf_s), 0, 0, 0, 0};
  }
  static DatasetKey corpus_file(std::uint64_t seed, std::size_t words, double zipf_s,
                                std::int64_t bytes, std::uint64_t index) {
    return {Kind::kCorpusFile, seed, words, std::bit_cast<std::uint64_t>(zipf_s), bytes, index,
            0, 0};
  }
  static DatasetKey teragen(std::uint64_t seed, std::int64_t rows) {
    return {Kind::kTeraGen, seed, static_cast<std::uint64_t>(rows), 0, 0, 0, 0, 0};
  }
  // WordCount's counts of bytes [offset, offset + length) of `file`.
  static DatasetKey wordcount_map(const DatasetKey& file, std::int64_t offset,
                                  std::int64_t length) {
    return split_of(Kind::kWordCountMap, file, offset, length);
  }
  // The sorted rows of bytes [offset, offset + length) of `table`.
  static DatasetKey terasort_map(const DatasetKey& table, std::int64_t offset,
                                 std::int64_t length) {
    return split_of(Kind::kTeraSortMap, table, offset, length);
  }
  // The boundary keys that range-partition `table` over `reducers`.
  static DatasetKey terasort_bounds(const DatasetKey& table, int reducers) {
    DatasetKey key = table;
    key.kind = Kind::kTeraSortBounds;
    key.index = static_cast<std::uint64_t>(reducers);
    return key;
  }
  // The Halton points [first, first + count) that fall inside the circle.
  static DatasetKey pi_map(std::int64_t first, std::int64_t count) {
    DatasetKey key;
    key.kind = Kind::kPiMap;
    key.offset = first;
    key.length = count;
    return key;
  }

  // `kind`'s reduce of the cached runs with serials `inputs`, in this
  // order: the exact list, so reordered or dropped runs are another key.
  static DatasetKey reduce(Kind kind, std::vector<std::uint64_t> inputs) {
    DatasetKey key;
    key.kind = kind;
    key.inputs = std::move(inputs);
    return key;
  }
  // `kind`'s digest state after folding the cached partition `serial`
  // into a digest whose state was `state`.
  static DatasetKey digest_step(Kind kind, std::uint64_t state, std::uint64_t serial) {
    DatasetKey key;
    key.kind = kind;
    key.seed = state;
    key.index = serial;
    return key;
  }

  bool derived() const { return kind >= Kind::kWordCountMap; }
  // Computed from other entries, named by their serials.
  bool of_entries() const { return kind >= Kind::kWordCountReduce; }

  auto operator<=>(const DatasetKey&) const = default;

 private:
  static DatasetKey split_of(Kind kind, const DatasetKey& input, std::int64_t offset,
                             std::int64_t length) {
    DatasetKey key = input;
    key.kind = kind;
    key.offset = offset;
    key.length = length;
    return key;
  }
};

class DatasetCache {
 public:
  // Resident bytes of one class (inputs, or derived outputs) above
  // which that class's least recently used entries are evicted.
  static constexpr std::size_t kBudgetBytes = std::size_t{64} << 20;
  // What a slot costs beyond its payload (and a reduce key's input
  // serials): the tree node with its key and slot, the future's shared
  // state and the serial-index node. Charged so that many tiny entries,
  // such as 8-byte digest steps, still count against the budget.
  static constexpr std::size_t kSlotOverheadBytes = 320;

  // What a builder returns: the dataset and the bytes it occupies.
  struct Built {
    std::shared_ptr<const void> data;
    std::size_t bytes = 0;
  };

  static DatasetCache& instance();

  // The dataset for `key`, calling `build` on a miss. Concurrent
  // requests for one key build it once; the others wait for it. A
  // builder that throws leaves no entry behind, and every waiter sees
  // its exception. While a DerivedBypass is alive on the calling
  // thread, a derived key is built afresh and neither read from nor
  // stored in the cache.
  std::shared_ptr<const void> acquire(const DatasetKey& key, const std::function<Built()>& build);

  template <typename T>
  std::shared_ptr<const T> acquire_as(const DatasetKey& key, const std::function<Built()>& build) {
    return std::static_pointer_cast<const T>(acquire(key, build));
  }

  // The serial of the built entry whose data is at `data`, or 0 if
  // no entry currently in the cache holds it. Always 0 while a
  // DerivedBypass is alive on the calling thread.
  std::uint64_t serial_of(const void* data) const;

  // Bytes charged to built entries, of both classes.
  std::size_t resident_bytes() const;

  // Requests answered from the cache (including those that waited for
  // another thread's build), requests that built their dataset, and
  // entries dropped over the budget, since the process started. A
  // build under a DerivedBypass counts as neither hit nor miss.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

  // Scoped: while one is alive on a thread, that thread computes every
  // derived output itself and reads no serial. The differential
  // oracle's reference executor holds one, so no map, reduce or digest
  // step of the answer it judges runs by comes from the memo those
  // runs read.
  class DerivedBypass {
   public:
    DerivedBypass();
    ~DerivedBypass();
    DerivedBypass(const DerivedBypass&) = delete;
    DerivedBypass& operator=(const DerivedBypass&) = delete;
  };

 private:
  struct Slot {
    std::shared_future<std::shared_ptr<const void>> ready;
    std::size_t bytes = 0;  // payload plus bookkeeping
    std::uint64_t last_use = 0;
    std::uint64_t serial = 0;         // 0 until built
    const void* address = nullptr;    // the built data
  };

  void evict_over_budget(bool derived);  // requires mutex_

  mutable std::mutex mutex_;  // guards everything below
  std::map<DatasetKey, Slot> slots_;
  std::unordered_map<const void*, std::uint64_t> serials_;  // built data -> its serial
  std::uint64_t last_serial_ = 0;
  std::size_t resident_[2] = {0, 0};  // inputs, derived outputs
  std::uint64_t clock_ = 0;
  Stats stats_;
};

}  // namespace mrapid::wl
