#pragma once

// WordCount, matching the Hadoop examples program: tokenising map with
// an in-map combiner, summing reduce. The map counts its split's tokens
// by canonical vocabulary id, which gives exactly the counts tokenising
// the split's text would (tokenize_into is the oracle), so word totals
// are verifiable against the generator, and the measured intermediate
// sizes drive the simulator.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workloads/textgen.h"
#include "workloads/workload.h"

namespace mrapid::wl {

// Intermediate and final data type: (word, count) pairs sorted by
// word, each word once.
using WordCounts = std::vector<std::pair<std::string, std::int64_t>>;

// The string-keyed tally the tokenizer oracle fills.
using WordTally = std::unordered_map<std::string, std::int64_t>;

struct WordCountParams {
  std::size_t num_files = 4;
  Bytes bytes_per_file = 10_MB;
  std::uint64_t seed = 42;
  std::size_t vocabulary = 100000;
  double zipf_s = 1.1;
  // Calibration: map-side tokenise+combine throughput per core and
  // reduce-side merge throughput per core. JVM-era Hadoop WordCount
  // maps process single-digit MB/s per core once record-reader and
  // serialisation overheads are counted.
  Rate map_throughput = Rate::mb_per_sec(3);
  Rate reduce_throughput = Rate::mb_per_sec(25);
  // When true the combiner is disabled and the map emits raw
  // (word, 1) pairs — much larger intermediate data (used by the
  // cache-pressure tests).
  bool use_combiner = true;
};

class WordCount : public Workload {
 public:
  explicit WordCount(WordCountParams params);

  std::string name() const override { return "wordcount"; }
  std::vector<std::string> stage(hdfs::Hdfs& hdfs) override;

  mr::MapOutcome execute_map(const mr::InputSplit& split) const override;
  mr::ReduceOutcome execute_reduce(std::span<const mr::MapOutcome> maps) const override;
  std::uint64_t result_digest(const mr::JobResult& result) const override;

  // HashPartitioner: words are hashed over the reducers, like
  // Hadoop's default (hash(key) mod R).
  std::vector<mr::MapOutcome> partition_map_output(const mr::MapOutcome& outcome,
                                                   int reducers) const override;

  // Tokenising streams through the JVM is memory-bandwidth heavy
  // (string churn, GC): co-scheduled WordCount maps degrade markedly.
  double compute_contention() const override { return 0.25; }

  const WordCountParams& params() const { return params_; }
  Bytes total_input() const {
    return static_cast<Bytes>(params_.num_files) * params_.bytes_per_file;
  }

  // Ground truth for tests: tokenise the text of every file directly.
  WordCounts reference_counts() const;

  static std::shared_ptr<const WordCounts> result_of(const mr::JobResult& result) {
    return std::static_pointer_cast<const WordCounts>(result.reduce_result);
  }

 private:
  static Bytes serialized_size(const WordCounts& counts);

  WordCountParams params_;
  TextGenerator generator_;
  // execute_map is deterministic per split, and experiment harnesses
  // run the same splits across many modes/attempts — memoise.
  mutable std::map<std::pair<std::string, Bytes>, mr::MapOutcome> map_cache_;
};

// Tokenise `text` into `tally` (splits on spaces/newlines): the
// string-based oracle for WordCount's token-id map. Exposed for tests.
void tokenize_into(std::string_view text, WordTally& tally);

// `tally` as flat counts, sorted by word.
WordCounts sorted_counts(const WordTally& tally);

}  // namespace mrapid::wl
