#include "workloads/wordcount.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <span>

#include "common/hash.h"
#include "common/rng.h"
#include "workloads/dataset_cache.h"

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

// A tally by canonical id that is all zero between calls, with one bit
// per id marking the ids counted so far. Each thread keeps one, so a
// map touches only the ids its split holds and costs O(tokens), not
// O(vocabulary).
struct IdTally {
  std::vector<std::int64_t> counts;  // by id
  std::vector<std::uint64_t> seen;   // id's bit is bit id % 64 of seen[id / 64]
};

// This thread's tally, sized for `distinct` ids, for one count_range
// call; zeroes what it counted when it goes, also on an exception.
class TallyLease {
 public:
  explicit TallyLease(std::size_t distinct)
      : tally_(thread_tally()), words_((distinct + 63) / 64) {
    if (tally_.counts.size() < distinct) {
      tally_.counts.resize(distinct, 0);
      tally_.seen.resize(words_, 0);
    }
  }
  TallyLease(const TallyLease&) = delete;
  TallyLease& operator=(const TallyLease&) = delete;
  ~TallyLease() {
    drain([](std::uint32_t, std::int64_t) {});
  }

  void add(std::uint32_t id) {
    if (tally_.counts[id]++ == 0) tally_.seen[id / 64] |= std::uint64_t{1} << (id % 64);
  }

  std::size_t counted_ids() const {
    std::size_t ids = 0;
    for (std::size_t w = 0; w < words_; ++w) ids += std::popcount(tally_.seen[w]);
    return ids;
  }

  // Calls emit(id, count) for every counted id in id order, zeroing
  // the tally as it goes.
  template <typename Emit>
  void drain(Emit&& emit) {
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t bits = tally_.seen[w]; bits != 0; bits &= bits - 1) {
        const auto id = static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        emit(id, tally_.counts[id]);
        tally_.counts[id] = 0;
      }
      tally_.seen[w] = 0;
    }
  }

 private:
  static IdTally& thread_tally() {
    thread_local IdTally tally;
    return tally;
  }

  IdTally& tally_;
  std::size_t words_;  // bitmap words covering this vocabulary's ids
};

// The counts a tokenizer gives for bytes [begin, end) of `file`. Whole
// tokens are tallied by canonical id, whose order is the words' order.
// A token cut by the range or by the end of the file is counted as the
// fragment the tokenizer would see, inserted by key: a fragment may
// spell a vocabulary word or none.
KeyedCounts count_range(const Vocabulary& vocabulary, const CorpusFile& file, Bytes begin,
                        Bytes end) {
  end = std::min(end, file.bytes);
  TallyLease tally(vocabulary.distinct());
  WordKey fragments[2];  // only the first and the last token can be cut
  std::size_t cut = 0;
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
        tally.add(vocabulary.id(rank));
      } else {
        assert(cut < 2);
        fragments[cut++] =
            key_slice(vocabulary.key(vocabulary.id(rank)), static_cast<std::size_t>(lo - pos),
                      static_cast<std::size_t>(hi - lo));
      }
    }
    pos += length + 1;
  }

  KeyedCounts counts;
  counts.reserve(tally.counted_ids() + cut);
  tally.drain([&](std::uint32_t id, std::int64_t count) {
    counts.push_back({vocabulary.key(id), count});
  });
  for (std::size_t f = 0; f < cut; ++f) {
    const auto at = std::lower_bound(
        counts.begin(), counts.end(), fragments[f],
        [](const KeyedCount& entry, WordKey key) { return entry.key < key; });
    if (at != counts.end() && at->key == fragments[f]) {
      ++at->count;
    } else {
      counts.insert(at, {fragments[f], 1});
    }
  }
  return counts;
}

// Merges two runs sorted by key, summing the counts of equal keys.
KeyedCounts merge_two(const KeyedCounts& a, const KeyedCounts& b) {
  KeyedCounts merged;
  merged.reserve(a.size() + b.size());
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (i->key < j->key) {
      merged.push_back(*i++);
    } else if (j->key < i->key) {
      merged.push_back(*j++);
    } else {
      merged.push_back({i->key, i->count + j->count});
      ++i;
      ++j;
    }
  }
  merged.insert(merged.end(), i, a.end());
  merged.insert(merged.end(), j, b.end());
  return merged;
}

// Merges runs sorted by key into one, pairwise in a balanced tree, so
// each entry takes part in about log2(runs) merges.
KeyedCounts merge_counts(std::span<const KeyedCounts* const> runs) {
  switch (runs.size()) {
    case 0: return {};
    case 1: return *runs.front();
    case 2: return merge_two(*runs[0], *runs[1]);
    default: {
      const std::size_t half = runs.size() / 2;
      return merge_two(merge_counts(runs.first(half)), merge_counts(runs.subspan(half)));
    }
  }
}

// Folds `key`'s word into `digest` exactly as
// digest.mix(std::string_view(word)) does: the length, then the
// letters, decoded straight from the key.
void mix_word(Fnv64& digest, WordKey key) {
  const std::size_t length = key_length(key);
  digest.mix(static_cast<std::uint64_t>(length));
  for (std::size_t i = 0; i < length; ++i) {
    const char letter = key_letter(key, i);
    digest.mix_bytes(&letter, 1);
  }
}

const KeyedCounts& keyed(const std::shared_ptr<const void>& data) {
  return *static_cast<const KeyedCounts*>(data.get());
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

Bytes WordCount::serialized_size(const KeyedCounts& counts) {
  Bytes total = 0;
  for (const KeyedCount& entry : counts) {
    total += static_cast<Bytes>(key_length(entry.key)) + kPairOverhead;
  }
  return total;
}

mr::MapOutcome WordCount::execute_map(const mr::InputSplit& split) const {
  // Recover the file index from the staged path layout.
  std::size_t file_index = 0;
  const std::size_t part = split.path.rfind("/part-");
  assert(part != std::string::npos);
  std::sscanf(split.path.c_str() + part, "/part-%zu", &file_index);
  assert(file_index < params_.num_files);

  // The split's counts are looked up before its corpus file, so a
  // memoized split never regenerates an evicted file.
  const std::shared_ptr<const KeyedCounts> counts =
      DatasetCache::instance().acquire_as<KeyedCounts>(
          DatasetKey::wordcount_map(generator_.file_key(params_.bytes_per_file, file_index),
                                    split.offset, split.length),
          [&] {
            const std::shared_ptr<const CorpusFile> file =
                generator_.file(params_.bytes_per_file, file_index);
            assert(split.offset + split.length <= file->bytes + 1);
            auto built = std::make_shared<const KeyedCounts>(count_range(
                generator_.vocabulary(), *file, split.offset, split.offset + split.length));
            return DatasetCache::Built{built, built->capacity() * sizeof(KeyedCount)};
          });

  mr::MapOutcome outcome;
  if (params_.use_combiner) {
    outcome.output_bytes = serialized_size(*counts);
    outcome.output_records = static_cast<std::int64_t>(counts->size());
  } else {
    // Raw (word, 1) pairs: one record per token.
    for (const KeyedCount& entry : *counts) {
      outcome.output_bytes +=
          entry.count * (static_cast<Bytes>(key_length(entry.key)) + kPairOverhead);
      outcome.output_records += entry.count;
    }
  }
  outcome.core_seconds = params_.map_throughput.seconds_for(split.length);
  outcome.data = counts;
  return outcome;
}

mr::ReduceOutcome WordCount::execute_reduce(std::span<const mr::MapOutcome> maps) const {
  Bytes shuffled = 0;
  for (const auto& map : maps) shuffled += map.output_bytes;
  std::shared_ptr<const void> merged =
      reduce_runs(DatasetKey::Kind::kWordCountReduce, maps, [maps] {
        std::vector<const KeyedCounts*> runs;
        for (const auto& map : maps) {
          if (map.data) runs.push_back(&keyed(map.data));
        }
        auto built = std::make_shared<const KeyedCounts>(merge_counts(runs));
        return DatasetCache::Built{built, built->capacity() * sizeof(KeyedCount)};
      });
  mr::ReduceOutcome outcome;
  outcome.output_bytes = serialized_size(keyed(merged));
  outcome.core_seconds = params_.reduce_throughput.seconds_for(shuffled);
  outcome.result = std::move(merged);
  return outcome;
}

std::vector<mr::MapOutcome> WordCount::partition_map_output(const mr::MapOutcome& outcome,
                                                            int reducers) const {
  if (reducers <= 1) return mr::JobLogic::partition_map_output(outcome, reducers);
  const auto r_count = static_cast<std::size_t>(reducers);
  std::vector<KeyedCounts> shards(r_count);
  if (outcome.data) {
    // Each word goes to stable_hash64(spelling) mod R, like Hadoop's
    // HashPartitioner. Sizing the shards first keeps them exact, and
    // appending in key order keeps every shard sorted.
    const KeyedCounts& counts = keyed(outcome.data);
    std::vector<std::uint32_t> target(counts.size());
    std::vector<std::size_t> sizes(r_count, 0);
    char letters[kMaxKeyLetters];
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const std::string_view word(letters, spell_key(counts[i].key, letters));
      target[i] = static_cast<std::uint32_t>(stable_hash64(word) % r_count);
      ++sizes[target[i]];
    }
    for (std::size_t r = 0; r < r_count; ++r) shards[r].reserve(sizes[r]);
    for (std::size_t i = 0; i < counts.size(); ++i) shards[target[i]].push_back(counts[i]);
  }
  std::vector<mr::MapOutcome> out(r_count);
  for (std::size_t r = 0; r < r_count; ++r) {
    out[r].output_bytes = serialized_size(shards[r]);
    out[r].output_records = static_cast<std::int64_t>(shards[r].size());
    out[r].data = std::make_shared<const KeyedCounts>(std::move(shards[r]));
  }
  return out;
}

std::uint64_t WordCount::result_digest(const mr::JobResult& result) const {
  // Each partition is already sorted by word; the partitions
  // themselves are disjoint and ordered, so they are folded in
  // partition order.
  return fold_partitions(
      result, DatasetKey::Kind::kWordCountDigest, [](Fnv64& digest, const void* partition) {
        const auto& counts = *static_cast<const KeyedCounts*>(partition);
        digest.mix(static_cast<std::uint64_t>(counts.size()));
        for (const KeyedCount& entry : counts) {
          mix_word(digest, entry.key);
          digest.mix(entry.count);
        }
      });
}

WordCounts WordCount::counts_of(const std::shared_ptr<const void>& data) {
  WordCounts counts;
  if (!data) return counts;
  counts.reserve(keyed(data).size());
  for (const KeyedCount& entry : keyed(data)) {
    counts.emplace_back(key_string(entry.key), entry.count);
  }
  return counts;
}

WordCounts WordCount::reference_counts() const {
  WordTally tally;
  for (std::size_t i = 0; i < params_.num_files; ++i) {
    tokenize_into(generator_.spell(*generator_.file(params_.bytes_per_file, i)), tally);
  }
  return sorted_counts(tally);
}

}  // namespace mrapid::wl
