#pragma once

// TeraSort: sorts TeraGen-style 100-byte rows (10-byte key + 90-byte
// payload) into total order. Maps really sort their split's rows;
// the reduce really k-way-merges the sorted runs, so total order is
// verifiable. Intermediate data volume equals input volume — the
// workload the paper uses to stress U+'s cache/spill behaviour.

#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "workloads/workload.h"

namespace mrapid::wl {

struct TeraRow {
  std::array<char, 10> key;
  // The 90-byte payload is not materialised — carrying it would only
  // burn memory; sizes are accounted analytically (100 B per row).
  std::uint64_t payload_tag;

  // The key as big-endian integers (bytes 0-7, then 8-9). Keys are
  // printable ASCII, so these order rows as std::array's char compare
  // does, in two integer compares.
  std::pair<std::uint64_t, std::uint16_t> order_key() const {
    std::uint64_t head = 0;
    std::uint16_t tail = 0;
    std::memcpy(&head, key.data(), sizeof(head));
    std::memcpy(&tail, key.data() + sizeof(head), sizeof(tail));
    return {__builtin_bswap64(head), __builtin_bswap16(tail)};
  }

  friend bool operator<(const TeraRow& a, const TeraRow& b) {
    return a.order_key() < b.order_key();
  }
  friend bool operator==(const TeraRow& a, const TeraRow& b) { return a.key == b.key; }
};

using TeraRows = std::vector<TeraRow>;

struct TeraSortParams {
  std::int64_t rows = 100000;
  int blocks = 4;  // the paper fixes 4 blocks -> 4 map tasks
  std::uint64_t seed = 7;
  Rate map_sort_throughput = Rate::mb_per_sec(40);
  Rate reduce_merge_throughput = Rate::mb_per_sec(80);
};

class TeraSort : public Workload {
 public:
  static constexpr Bytes kRowBytes = 100;

  explicit TeraSort(TeraSortParams params);

  std::string name() const override { return "terasort"; }
  std::vector<std::string> stage(hdfs::Hdfs& hdfs) override;

  mr::MapOutcome execute_map(const mr::InputSplit& split) const override;
  mr::ReduceOutcome execute_reduce(std::span<const mr::MapOutcome> maps) const override;
  std::uint64_t result_digest(const mr::JobResult& result) const override;

  // TotalOrderPartitioner: range partition on key boundaries sampled
  // from the input (like the real TeraSort's sampling pass), so the
  // concatenation of reducer outputs is globally sorted.
  std::vector<mr::MapOutcome> partition_map_output(const mr::MapOutcome& outcome,
                                                   int reducers) const override;

  // Sorting is I/O-dominated; its compute phase co-schedules mildly.
  double compute_contention() const override { return 0.06; }

  const TeraSortParams& params() const { return params_; }
  Bytes total_input() const { return params_.rows * kRowBytes; }

  static std::shared_ptr<const TeraRows> result_of(const mr::JobResult& result) {
    return std::static_pointer_cast<const TeraRows>(result.reduce_result);
  }

 private:
  // TeraGen output, shared through the dataset cache.
  std::shared_ptr<const TeraRows> rows() const;
  // Partition boundaries for R reducers, from a deterministic sample
  // of the input keys (cached per R).
  const std::vector<TeraRow>& boundaries(int reducers) const;

  TeraSortParams params_;
  mutable std::map<int, std::vector<TeraRow>> boundaries_cache_;
  // Sorting a split is deterministic; memoise across modes/attempts.
  mutable std::map<Bytes, mr::MapOutcome> map_cache_;  // keyed by split offset
};

}  // namespace mrapid::wl
