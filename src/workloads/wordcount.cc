#include "workloads/wordcount.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/hash.h"

namespace mrapid::wl {

namespace {
// Serialized (word, count) pair: word bytes + separator + 8-byte count.
constexpr Bytes kPairOverhead = 9;

// Input directories are derived from the workload shape so distinct
// WordCount instances sharing one HDFS never collide.
std::string input_dir(const WordCountParams& params) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/input/wordcount-%zux%lld-%llu", params.num_files,
                static_cast<long long>(params.bytes_per_file),
                static_cast<unsigned long long>(params.seed));
  return buf;
}

std::string input_path(const WordCountParams& params, std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/part-%05zu", index);
  return input_dir(params) + buf;
}

// The counts a tokenizer gives for bytes [begin, end) of `file`. Whole
// tokens are counted by canonical id in a dense array, whose order is
// the words' order. A token cut by the range or by the end of the file
// is spelled out as the fragment the tokenizer would see, and merged in
// by spelling, since a fragment may itself be a vocabulary word.
WordCounts count_range(const Vocabulary& vocabulary, const CorpusFile& file, Bytes begin,
                       Bytes end) {
  end = std::min(end, file.bytes);
  std::vector<std::int64_t> tally(vocabulary.distinct(), 0);
  std::vector<std::string> fragments;
  // Seek to the last checkpoint at or before `begin`.
  const auto after = static_cast<std::size_t>(
      std::upper_bound(file.starts.begin(), file.starts.end(), begin) - file.starts.begin());
  std::size_t token = after == 0 ? 0 : (after - 1) * CorpusFile::kStride;
  Bytes pos = after == 0 ? 0 : file.starts[after - 1];
  for (; token < file.ranks.size() && pos < end; ++token) {
    const std::uint32_t rank = file.ranks[token];
    const auto length = static_cast<Bytes>(vocabulary.length(rank));
    const Bytes lo = std::max(pos, begin);
    const Bytes hi = std::min(pos + length, end);
    if (lo < hi) {
      if (lo == pos && hi == pos + length) {
        ++tally[vocabulary.id(rank)];
      } else {
        fragments.push_back(vocabulary.word(rank).substr(static_cast<std::size_t>(lo - pos),
                                                         static_cast<std::size_t>(hi - lo)));
      }
    }
    pos += length + 1;
  }

  std::vector<std::string> strangers;  // fragments that spell no vocabulary word
  for (std::string& fragment : fragments) {
    if (const auto id = vocabulary.find(fragment)) {
      ++tally[*id];
    } else {
      strangers.push_back(std::move(fragment));
    }
  }
  const auto seen =
      std::count_if(tally.begin(), tally.end(), [](std::int64_t count) { return count > 0; });
  WordCounts counts;
  counts.reserve(static_cast<std::size_t>(seen) + strangers.size());
  for (std::uint32_t id = 0; id < tally.size(); ++id) {
    if (tally[id] > 0) counts.emplace_back(vocabulary.spelling(id), tally[id]);
  }
  for (std::string& stranger : strangers) {
    const auto at = std::lower_bound(
        counts.begin(), counts.end(), stranger,
        [](const auto& entry, const std::string& word) { return entry.first < word; });
    if (at != counts.end() && at->first == stranger) {
      ++at->second;
    } else {
      counts.emplace(at, std::move(stranger), 1);
    }
  }
  return counts;
}

// Merges runs sorted by word into one, summing the counts of equal words.
WordCounts merge_counts(const std::vector<const WordCounts*>& runs) {
  struct Head {
    std::string_view word;  // of *at
    WordCounts::const_iterator at;
    WordCounts::const_iterator end;
  };
  std::vector<Head> heap;
  std::size_t largest = 0;
  for (const WordCounts* run : runs) {
    if (!run->empty()) heap.push_back({run->front().first, run->begin(), run->end()});
    largest = std::max(largest, run->size());
  }
  const auto later = [](const Head& a, const Head& b) { return b.word < a.word; };
  std::make_heap(heap.begin(), heap.end(), later);
  WordCounts merged;
  merged.reserve(largest);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head& head = heap.back();
    if (!merged.empty() && merged.back().first == head.word) {
      merged.back().second += head.at->second;
    } else {
      merged.push_back(*head.at);
    }
    if (++head.at != head.end) {
      head.word = head.at->first;
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  return merged;
}

}  // namespace

void tokenize_into(std::string_view text, WordTally& tally) {
  std::size_t begin = 0;
  while (begin < text.size()) {
    while (begin < text.size() && (text[begin] == ' ' || text[begin] == '\n')) ++begin;
    std::size_t end = begin;
    while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
    if (end > begin) ++tally[std::string(text.substr(begin, end - begin))];
    begin = end;
  }
}

WordCounts sorted_counts(const WordTally& tally) {
  WordCounts counts(tally.begin(), tally.end());
  std::sort(counts.begin(), counts.end());
  return counts;
}

WordCount::WordCount(WordCountParams params)
    : params_(params), generator_(params.seed, params.vocabulary, params.zipf_s) {}

std::vector<std::string> WordCount::stage(hdfs::Hdfs& hdfs) {
  std::vector<std::string> paths;
  paths.reserve(params_.num_files);
  for (std::size_t i = 0; i < params_.num_files; ++i) {
    std::string path = input_path(params_, i);
    if (!hdfs.namenode().exists(path)) hdfs.preload_file(path, params_.bytes_per_file);
    paths.push_back(std::move(path));
  }
  return paths;
}

Bytes WordCount::serialized_size(const WordCounts& counts) {
  Bytes total = 0;
  for (const auto& [word, count] : counts) {
    (void)count;
    total += static_cast<Bytes>(word.size()) + kPairOverhead;
  }
  return total;
}

mr::MapOutcome WordCount::execute_map(const mr::InputSplit& split) const {
  const auto cache_key = std::make_pair(split.path, split.offset);
  if (auto it = map_cache_.find(cache_key); it != map_cache_.end()) return it->second;
  // Recover the file index from the staged path layout.
  std::size_t file_index = 0;
  const std::size_t part = split.path.rfind("/part-");
  assert(part != std::string::npos);
  std::sscanf(split.path.c_str() + part, "/part-%zu", &file_index);
  assert(file_index < params_.num_files);
  const std::shared_ptr<const CorpusFile> file =
      generator_.file(params_.bytes_per_file, file_index);

  assert(split.offset + split.length <= file->bytes + 1);
  auto counts = std::make_shared<WordCounts>(count_range(
      generator_.vocabulary(), *file, split.offset, split.offset + split.length));

  mr::MapOutcome outcome;
  std::int64_t tokens = 0;
  for (const auto& [word, count] : *counts) {
    (void)word;
    tokens += count;
  }
  if (params_.use_combiner) {
    outcome.output_bytes = serialized_size(*counts);
    outcome.output_records = static_cast<std::int64_t>(counts->size());
  } else {
    // Raw (word, 1) pairs: one record per token.
    Bytes raw = 0;
    for (const auto& [word, count] : *counts) {
      raw += count * (static_cast<Bytes>(word.size()) + kPairOverhead);
    }
    outcome.output_bytes = raw;
    outcome.output_records = tokens;
  }
  outcome.core_seconds = params_.map_throughput.seconds_for(split.length);
  outcome.data = counts;
  map_cache_.emplace(cache_key, outcome);
  return outcome;
}

mr::ReduceOutcome WordCount::execute_reduce(std::span<const mr::MapOutcome> maps) const {
  std::vector<const WordCounts*> runs;
  Bytes shuffled = 0;
  for (const auto& map : maps) {
    shuffled += map.output_bytes;
    if (map.data) runs.push_back(std::static_pointer_cast<const WordCounts>(map.data).get());
  }
  auto merged = std::make_shared<WordCounts>(merge_counts(runs));
  mr::ReduceOutcome outcome;
  outcome.output_bytes = serialized_size(*merged);
  outcome.core_seconds = params_.reduce_throughput.seconds_for(shuffled);
  outcome.result = merged;
  return outcome;
}

std::vector<mr::MapOutcome> WordCount::partition_map_output(const mr::MapOutcome& outcome,
                                                            int reducers) const {
  if (reducers <= 1) return mr::JobLogic::partition_map_output(outcome, reducers);
  std::vector<std::shared_ptr<WordCounts>> shards(static_cast<std::size_t>(reducers));
  for (auto& shard : shards) shard = std::make_shared<WordCounts>();
  if (outcome.data) {
    // Appending in word order keeps every shard sorted.
    const auto& counts = *std::static_pointer_cast<const WordCounts>(outcome.data);
    for (const auto& [word, count] : counts) {
      const auto r = stable_hash64(word) % static_cast<std::uint64_t>(reducers);
      shards[static_cast<std::size_t>(r)]->emplace_back(word, count);
    }
  }
  std::vector<mr::MapOutcome> out(static_cast<std::size_t>(reducers));
  for (int r = 0; r < reducers; ++r) {
    auto& shard = shards[static_cast<std::size_t>(r)];
    out[static_cast<std::size_t>(r)].output_bytes = serialized_size(*shard);
    out[static_cast<std::size_t>(r)].output_records = static_cast<std::int64_t>(shard->size());
    out[static_cast<std::size_t>(r)].data = shard;
  }
  return out;
}

std::uint64_t WordCount::result_digest(const mr::JobResult& result) const {
  // Each partition is already sorted by word; the partitions
  // themselves are disjoint and ordered, so they are folded in
  // partition order.
  Fnv64 digest;
  digest.mix(static_cast<std::uint64_t>(result.reduce_results.size()));
  for (const auto& erased : result.reduce_results) {
    if (!erased) {
      digest.mix(std::string_view("<null partition>"));
      continue;
    }
    const auto& counts = *std::static_pointer_cast<const WordCounts>(erased);
    digest.mix(static_cast<std::uint64_t>(counts.size()));
    for (const auto& [word, count] : counts) {
      digest.mix(std::string_view(word));
      digest.mix(count);
    }
  }
  return digest.value();
}

WordCounts WordCount::reference_counts() const {
  WordTally tally;
  for (std::size_t i = 0; i < params_.num_files; ++i) {
    tokenize_into(generator_.spell(*generator_.file(params_.bytes_per_file, i)), tally);
  }
  return sorted_counts(tally);
}

}  // namespace mrapid::wl
