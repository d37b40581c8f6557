// Tests for the workloads: the text generator, WordCount, TeraSort and
// PI — these verify the *real computation* (counts, sortedness, pi
// accuracy), not just the simulated timing.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string_view>
#include <thread>
#include <tuple>

#include "cluster/azure.h"
#include "common/hash.h"
#include "common/rng.h"
#include "harness/world.h"
#include "mapreduce/split.h"
#include "workloads/dataset_cache.h"
#include "workloads/pi.h"
#include "workloads/terasort.h"
#include "workloads/textgen.h"
#include "workloads/wordcount.h"

namespace mrapid::wl {
namespace {

// ---- text generator --------------------------------------------------

TEST(TextGen, DeterministicPerSeedAndTag) {
  TextGenerator a(42), b(42);
  EXPECT_EQ(a.generate(4096, 1), b.generate(4096, 1));
  EXPECT_NE(a.generate(4096, 1), a.generate(4096, 2));
  TextGenerator c(43);
  EXPECT_NE(a.generate(4096, 1), c.generate(4096, 1));
}

TEST(TextGen, ExactRequestedSize) {
  TextGenerator gen(1);
  for (Bytes size : {1_B, 100_B, 64_KB}) {
    EXPECT_EQ(static_cast<Bytes>(gen.generate(size, 0).size()), size);
  }
}

TEST(TextGen, ProducesTokenizableWords) {
  TextGenerator gen(1);
  const std::string text = gen.generate(64_KB, 0);
  WordTally counts;
  tokenize_into(text, counts);
  EXPECT_GT(counts.size(), 10u);
  for (const auto& [word, count] : counts) {
    EXPECT_GT(count, 0);
    for (char c : word) EXPECT_TRUE(c >= 'a' && c <= 'z') << word;
  }
}

TEST(TextGen, ZipfSkewMakesTopWordsDominate) {
  TextGenerator gen(7);
  WordTally counts;
  tokenize_into(gen.generate(256_KB, 0), counts);
  std::vector<std::int64_t> freq;
  std::int64_t total = 0;
  for (const auto& [w, c] : counts) {
    freq.push_back(c);
    total += c;
  }
  std::sort(freq.rbegin(), freq.rend());
  std::int64_t top10 = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(10, freq.size()); ++i) top10 += freq[i];
  // Zipf s=1.1: the 10 hottest words carry a large share of tokens.
  EXPECT_GT(static_cast<double>(top10) / static_cast<double>(total), 0.15);
}

TEST(TextGen, SharesOneVocabularyPerIdentity) {
  TextGenerator a(42), b(42), c(42, 1000), d(42, 100000, 1.2);
  EXPECT_EQ(&a.vocabulary(), &b.vocabulary());
  EXPECT_NE(&a.vocabulary(), &c.vocabulary());
  EXPECT_NE(&a.vocabulary(), &d.vocabulary());
  EXPECT_EQ(a.file(4096, 3), b.file(4096, 3));
  EXPECT_EQ(a.spell(*a.file(4096, 3)), a.generate(4096, 3));
}

// The cache charges a vocabulary its footprint, which must count the
// sampler's bounds and guide table besides the words.
TEST(TextGen, VocabularyFootprintCountsTheSampler) {
  const Vocabulary vocabulary(42, 100000, 1.1);
  const std::size_t words = vocabulary.size() * (sizeof(std::uint8_t) + sizeof(std::uint32_t)) +
                            vocabulary.distinct() * sizeof(WordKey);
  EXPECT_GE(vocabulary.footprint_bytes(), words + vocabulary.sampler().footprint_bytes());
}

// ---- word keys -------------------------------------------------------------

// The vocabulary's spellings by rank, drawn exactly as Vocabulary's
// constructor draws them: the oracle its packed keys must reproduce.
std::vector<std::string> draw_spellings(std::uint64_t seed, std::size_t size) {
  std::vector<std::string> words;
  words.reserve(size);
  RngStream rng(seed, "textgen.vocabulary");
  for (std::size_t rank = 0; rank < size; ++rank) {
    const std::int64_t max_len = rank < 100 ? 4 : (rank < 5000 ? 7 : 10);
    const auto len = static_cast<std::size_t>(rng.next_int(3, max_len));
    std::string word;
    for (std::size_t c = 0; c < len; ++c) word.push_back(static_cast<char>('a' + rng.next_int(0, 25)));
    words.push_back(std::move(word));
  }
  return words;
}

TEST(WordKey, OrdersAndRoundTripsLikeSpellingsOverAVocabularyAndItsFragments) {
  const std::uint64_t seed = 42;
  const std::vector<std::string> words = draw_spellings(seed, 100000);
  const Vocabulary& vocabulary = TextGenerator(seed).vocabulary();
  ASSERT_EQ(vocabulary.size(), words.size());

  // Every word, and every prefix and suffix of it, as (key, rank,
  // first letter, length); the spelling is read back from `words`.
  struct Piece {
    WordKey key;
    std::uint32_t rank;
    std::uint8_t pos;
    std::uint8_t len;
  };
  std::vector<Piece> pieces;
  for (std::uint32_t rank = 0; rank < words.size(); ++rank) {
    const std::string& word = words[rank];
    const WordKey whole = word_key(word);
    ASSERT_EQ(vocabulary.key(vocabulary.id(rank)), whole) << "rank " << rank << ": " << word;
    for (std::size_t len = 1; len <= word.size(); ++len) {
      for (const std::size_t pos : {std::size_t{0}, word.size() - len}) {
        const std::string_view piece = std::string_view(word).substr(pos, len);
        const WordKey key = word_key(piece);
        // The slice count_range takes equals the fragment's own key,
        // and decodes to it, length included.
        ASSERT_EQ(key_slice(whole, pos, len), key) << word << " [" << pos << ", +" << len << ")";
        ASSERT_EQ(key_length(key), len);
        ASSERT_EQ(key_string(key), piece);
        pieces.push_back({key, rank, static_cast<std::uint8_t>(pos), static_cast<std::uint8_t>(len)});
      }
    }
  }
  const auto spelling = [&words](const Piece& p) {
    return std::string_view(words[p.rank]).substr(p.pos, p.len);
  };
  // Sorted by key, neighbours must compare as their spellings do: equal
  // keys for equal spellings, a smaller key for a smaller spelling. By
  // transitivity key order is then spelling order over every piece.
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) { return a.key < b.key; });
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    const std::string_view a = spelling(pieces[i - 1]);
    const std::string_view b = spelling(pieces[i]);
    if (pieces[i - 1].key == pieces[i].key) {
      ASSERT_EQ(a, b);
    } else {
      ASSERT_LT(a, b);
    }
  }
  // Canonical ids number the distinct spellings in order.
  for (std::uint32_t id = 1; id < vocabulary.distinct(); ++id) {
    ASSERT_LT(vocabulary.key(id - 1), vocabulary.key(id));
  }
}

// ---- dataset cache -----------------------------------------------------

TEST(DatasetCache, OneKeyFromManyThreadsIsBuiltOnce) {
  DatasetCache& cache = DatasetCache::instance();
  const DatasetKey key = DatasetKey::teragen(0xC0FFEE, 12345);
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const void>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] {
      got[i] = cache.acquire(key, [&] {
        ++builds;
        // Keep the build open long enough for the others to arrive.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return DatasetCache::Built{std::make_shared<const int>(7), sizeof(int)};
      });
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& data : got) EXPECT_EQ(data, got.front());
}

TEST(DatasetCache, EvictsLeastRecentlyUsedPastTheBudgetWhileHeldEntriesStayValid) {
  DatasetCache& cache = DatasetCache::instance();
  constexpr std::size_t kQuarter = DatasetCache::kBudgetBytes / 4;
  std::vector<int> builds(6, 0);
  const auto acquire = [&](int tag) {
    return cache.acquire_as<std::vector<int>>(DatasetKey::teragen(0xE71C7, tag), [&builds, tag] {
      ++builds[static_cast<std::size_t>(tag)];
      // A small payload that declares a quarter of the budget.
      return DatasetCache::Built{std::make_shared<const std::vector<int>>(1000, tag), kQuarter};
    });
  };
  const std::shared_ptr<const std::vector<int>> held = acquire(0);
  for (int tag = 1; tag < 6; ++tag) acquire(tag);
  EXPECT_LE(cache.resident_bytes(), DatasetCache::kBudgetBytes);

  // The oldest entry left the cache, but its holder still reads it.
  EXPECT_EQ(held->size(), 1000u);
  EXPECT_EQ(held->back(), 0);
  const auto rebuilt = acquire(0);
  EXPECT_EQ(builds[0], 2);
  EXPECT_NE(rebuilt, held);
  EXPECT_EQ(*rebuilt, *held);
  // The most recently used entry stayed.
  acquire(5);
  EXPECT_EQ(builds[5], 1);
}

TEST(DatasetCache, FailedBuildLeavesNoEntry) {
  DatasetCache& cache = DatasetCache::instance();
  const DatasetKey key = DatasetKey::teragen(0xFA11, 1);
  EXPECT_THROW(cache.acquire(key, []() -> DatasetCache::Built { throw std::runtime_error("x"); }),
               std::runtime_error);
  // The next request builds afresh instead of finding a broken entry.
  int builds = 0;
  const auto data = cache.acquire(key, [&builds] {
    ++builds;
    return DatasetCache::Built{std::make_shared<const int>(1), sizeof(int)};
  });
  EXPECT_EQ(builds, 1);
  EXPECT_NE(data, nullptr);
}

TEST(DatasetCache, StatsCountHitsMissesAndEvictions) {
  DatasetCache& cache = DatasetCache::instance();
  const DatasetCache::Stats before = cache.stats();
  // Two entries of just over half the budget each cannot both stay.
  const auto build = [] {
    return DatasetCache::Built{std::make_shared<const int>(1), DatasetCache::kBudgetBytes / 2 + 1};
  };
  const DatasetKey first = DatasetKey::teragen(0x57A75, 1);
  const DatasetKey second = DatasetKey::teragen(0x57A75, 2);
  cache.acquire(first, build);   // miss
  cache.acquire(first, build);   // hit
  cache.acquire(second, build);  // miss; evicts `first`
  cache.acquire(first, build);   // miss again; evicts `second`
  const DatasetCache::Stats after = cache.stats();
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 3u);
  // Entries other tests left behind may be evicted first.
  EXPECT_GE(after.evictions - before.evictions, 2u);
}

TEST(DatasetCache, EvictedEntryLosesItsSerial) {
  DatasetCache& cache = DatasetCache::instance();
  // Two inputs of just over half the budget each cannot both stay.
  const auto acquire = [&cache](int tag) {
    return cache.acquire(DatasetKey::teragen(0x5E41, tag), [] {
      return DatasetCache::Built{std::make_shared<const int>(1), DatasetCache::kBudgetBytes / 2};
    });
  };
  const std::shared_ptr<const void> held = acquire(1);
  const std::uint64_t serial = cache.serial_of(held.get());
  EXPECT_NE(serial, 0u);
  {
    const DatasetCache::DerivedBypass afresh;
    EXPECT_EQ(cache.serial_of(held.get()), 0u);
  }
  acquire(2);  // evicts `held`'s entry
  EXPECT_EQ(cache.serial_of(held.get()), 0u);
  EXPECT_EQ(*std::static_pointer_cast<const int>(held), 1);
  const std::shared_ptr<const void> rebuilt = acquire(1);
  EXPECT_NE(rebuilt, held);
  EXPECT_NE(cache.serial_of(rebuilt.get()), 0u);
  EXPECT_NE(cache.serial_of(rebuilt.get()), serial);
  EXPECT_EQ(cache.serial_of(nullptr), 0u);
}

// Every slot is charged its bookkeeping, so entries of a few payload
// bytes each, like digest steps, still fill a budget. (Inputs, whose
// budget a test can clear: in the derived one, map outputs outrank
// everything the tiny entries could push out.)
TEST(DatasetCache, ManyTinyEntriesTriggerEviction) {
  DatasetCache& cache = DatasetCache::instance();
  // An input that fills all of the budget but 1 MiB, alone.
  const auto big = [&](int tag) {
    return cache.acquire(DatasetKey::teragen(0x71A7, tag), [] {
      return DatasetCache::Built{std::make_shared<const int>(0),
                                 DatasetCache::kBudgetBytes - (std::size_t{1} << 20)};
    });
  };
  big(0);
  const std::shared_ptr<const void> held = big(1);  // evicts everything older
  ASSERT_NE(cache.serial_of(held.get()), 0u);
  // 4096 entries of 8 payload bytes: 32 KiB of payload, but more than
  // 1 MiB with their bookkeeping.
  for (std::int64_t tag = 0; tag < 4096; ++tag) {
    cache.acquire(DatasetKey::teragen(0x71A8, tag), [] {
      return DatasetCache::Built{std::make_shared<const std::uint64_t>(0), sizeof(std::uint64_t)};
    });
  }
  EXPECT_EQ(cache.serial_of(held.get()), 0u);
}

// The access pattern of a figure sweep: four modes, each mapping one
// split of each of four inputs, every input so large that only two fit
// the budget. Like the workloads, a map looks its output up before its
// input. A single LRU order over both would evict the first mode's
// first output when its fourth input arrives, and then rebuild an
// output and its input on every request.
TEST(DatasetCache, RepeatedModesBuildNoInputOrOutputAgain) {
  DatasetCache& cache = DatasetCache::instance();
  constexpr int kInputs = 4;
  constexpr std::size_t kInputBytes = DatasetCache::kBudgetBytes / 5 * 2;
  std::vector<int> input_builds(kInputs, 0);
  std::vector<int> output_builds(kInputs, 0);
  const auto map = [&](int tag) {
    const DatasetKey input = DatasetKey::teragen(0xF168, tag);
    return *cache.acquire_as<int>(DatasetKey::terasort_map(input, 0, 100), [&, tag, input] {
      ++output_builds[static_cast<std::size_t>(tag)];
      const auto rows = cache.acquire_as<int>(input, [&, tag] {
        ++input_builds[static_cast<std::size_t>(tag)];
        return DatasetCache::Built{std::make_shared<const int>(tag), kInputBytes};
      });
      return DatasetCache::Built{std::make_shared<const int>(*rows + 100), 64};
    });
  };
  for (int mode = 0; mode < 4; ++mode) {
    for (int tag = 0; tag < kInputs; ++tag) EXPECT_EQ(map(tag), tag + 100);
  }
  EXPECT_EQ(input_builds, std::vector<int>(kInputs, 1));
  EXPECT_EQ(output_builds, std::vector<int>(kInputs, 1));
}

// Outputs are budgeted apart from inputs: a full budget of outputs,
// such as earlier sweeps leave behind, does not push out an input
// whose splits are still being mapped.
TEST(DatasetCache, DerivedOutputsNeverCrowdOutInputs) {
  DatasetCache& cache = DatasetCache::instance();
  const DatasetKey table = DatasetKey::teragen(0xC40D, 1);
  int table_builds = 0;
  const auto acquire_table = [&] {
    return cache.acquire(table, [&table_builds] {
      ++table_builds;
      return DatasetCache::Built{std::make_shared<const int>(1), DatasetCache::kBudgetBytes / 2};
    });
  };
  acquire_table();
  const DatasetKey other = DatasetKey::teragen(0xC40D, 2);
  for (int split = 0; split < 8; ++split) {
    cache.acquire(DatasetKey::terasort_map(other, split, 1), [] {
      return DatasetCache::Built{std::make_shared<const int>(0), DatasetCache::kBudgetBytes / 4};
    });
  }
  acquire_table();
  EXPECT_EQ(table_builds, 1);
}

// ---- tokenizer ---------------------------------------------------------

TEST(Tokenizer, SplitsOnSpacesAndNewlines) {
  WordTally counts;
  tokenize_into("a b a\nb  c ", counts);
  EXPECT_EQ(counts.at("a"), 2);
  EXPECT_EQ(counts.at("b"), 2);
  EXPECT_EQ(counts.at("c"), 1);
  EXPECT_EQ(counts.size(), 3u);
}

TEST(Tokenizer, EmptyAndWhitespaceOnly) {
  WordTally counts;
  tokenize_into("", counts);
  tokenize_into("   \n  ", counts);
  EXPECT_TRUE(counts.empty());
}

// ---- wordcount -----------------------------------------------------------

TEST(WordCountLogic, MapCountsMatchDirectTokenization) {
  WordCountParams params;
  params.num_files = 2;
  params.bytes_per_file = 64_KB;
  WordCount wc(params);

  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::a3_paper_cluster());
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});
  const auto paths = wc.stage(hdfs);
  const auto splits = mr::compute_splits(hdfs, paths);
  ASSERT_EQ(splits.size(), 2u);

  std::vector<mr::MapOutcome> outcomes;
  for (const auto& split : splits) outcomes.push_back(wc.execute_map(split));
  const auto reduced = wc.execute_reduce(outcomes);
  const auto merged = WordCount::counts_of(reduced.result);
  EXPECT_EQ(merged, wc.reference_counts());
}

TEST(WordCountLogic, CombinerShrinksOutput) {
  WordCountParams with;
  with.num_files = 1;
  with.bytes_per_file = 64_KB;
  WordCountParams without = with;
  without.use_combiner = false;

  WordCount a(with), b(without);
  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::a3_paper_cluster());
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});
  const auto splits = mr::compute_splits(hdfs, a.stage(hdfs));
  const auto combined = a.execute_map(splits[0]);
  const auto raw = b.execute_map(splits[0]);
  EXPECT_LT(combined.output_bytes, raw.output_bytes);
  EXPECT_LT(combined.output_records, raw.output_records);
}

TEST(WordCountLogic, CoreSecondsScaleWithInput) {
  WordCountParams params;
  params.num_files = 1;
  params.bytes_per_file = 10_MB;
  WordCount wc(params);
  mr::InputSplit split;
  split.path = "/input/wordcount/part-00000";
  split.offset = 0;
  split.length = 10_MB;
  const auto outcome = wc.execute_map(split);
  // core-seconds = split bytes / configured map throughput.
  EXPECT_NEAR(outcome.core_seconds,
              params.map_throughput.seconds_for(split.length), 1e-9);
}

// One map over bytes [offset, offset + length) of file 0, computed
// afresh rather than read from the process-wide memo.
mr::MapOutcome map_range(const WordCountParams& params, Bytes offset, Bytes length) {
  const DatasetCache::DerivedBypass afresh;
  WordCount wc(params);
  mr::InputSplit split;
  split.path = "/input/oracle/part-00000";
  split.offset = offset;
  split.length = length;
  return wc.execute_map(split);
}

// The token-id map must give exactly what tokenising the split's text
// gives: the same (word, count) pairs, and the same sizes for the
// simulator, with and without the combiner.
void expect_map_matches_tokenizer(WordCountParams params, const std::string& text, Bytes offset,
                                  Bytes length) {
  WordTally tally;
  tokenize_into(std::string_view(text).substr(static_cast<std::size_t>(offset),
                                              static_cast<std::size_t>(length)),
                tally);
  const WordCounts expected = sorted_counts(tally);
  // A serialized (word, count) pair is the word, a separator and an
  // 8-byte count.
  Bytes combined_bytes = 0;
  Bytes raw_bytes = 0;
  std::int64_t tokens = 0;
  for (const auto& [word, count] : expected) {
    combined_bytes += static_cast<Bytes>(word.size()) + 9;
    raw_bytes += count * (static_cast<Bytes>(word.size()) + 9);
    tokens += count;
  }
  for (const bool combiner : {true, false}) {
    params.use_combiner = combiner;
    const mr::MapOutcome outcome = map_range(params, offset, length);
    const auto counts = WordCount::counts_of(outcome.data);
    ASSERT_EQ(counts, expected) << "split [" << offset << ", +" << length << ")";
    EXPECT_EQ(outcome.output_bytes, combiner ? combined_bytes : raw_bytes);
    EXPECT_EQ(outcome.output_records,
              combiner ? static_cast<std::int64_t>(expected.size()) : tokens);
  }
}

TEST(WordCountLogic, TokenIdMapMatchesTokenizerOnRandomSplits) {
  WordCountParams params;
  params.num_files = 1;
  params.bytes_per_file = 64_KB;
  params.seed = 11;
  const std::string text = TextGenerator(params.seed).generate(params.bytes_per_file, 0);
  RngStream rng(5, "split-geometry");
  int inside_words = 0, on_spaces = 0, shorter_than_a_word = 0;
  for (int i = 0; i < 200; ++i) {
    const Bytes offset = rng.next_int(0, params.bytes_per_file);
    const Bytes room = params.bytes_per_file - offset;
    const Bytes length = i % 4 == 0 ? rng.next_int(0, std::min<Bytes>(room, 12))
                                    : rng.next_int(0, room);
    const auto at = static_cast<std::size_t>(offset);
    if (at < text.size() && at > 0 && text[at] != ' ' && text[at - 1] != ' ') ++inside_words;
    if (at < text.size() && text[at] == ' ') ++on_spaces;
    if (length > 0 && length < 10) ++shorter_than_a_word;
    expect_map_matches_tokenizer(params, text, offset, length);
    if (HasFatalFailure()) return;
  }
  // The draw covered the geometries that matter.
  EXPECT_GT(inside_words, 20);
  EXPECT_GT(on_spaces, 5);
  EXPECT_GT(shorter_than_a_word, 20);
}

TEST(WordCountLogic, TokenIdMapMatchesTokenizerAtEdgesAndTails) {
  WordCountParams params;
  params.num_files = 1;
  params.seed = 3;
  // Lengths that cut the last token at every position, and a few
  // that end on or just after a space.
  int cut_tails = 0;
  for (Bytes bytes = 4096; bytes < 4096 + 12; ++bytes) {
    params.bytes_per_file = bytes;
    const std::string text = TextGenerator(params.seed).generate(bytes, 0);
    if (text.back() != ' ' && text[text.size() - 2] != ' ') ++cut_tails;
    expect_map_matches_tokenizer(params, text, 0, bytes);         // whole file
    expect_map_matches_tokenizer(params, text, bytes - 3, 3);     // tail fragment
    expect_map_matches_tokenizer(params, text, bytes / 2, bytes - bytes / 2);
    expect_map_matches_tokenizer(params, text, bytes, 0);         // empty split at the end
    expect_map_matches_tokenizer(params, text, 7, 0);             // empty split inside
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(cut_tails, 0);
}

TEST(WordCountLogic, TokenIdMapMatchesTokenizerOnFuzzerBlocks) {
  WordCountParams params;
  params.num_files = 1;
  params.bytes_per_file = 1_MB;
  params.seed = 0x9E3779B97F4A7C15ull ^ 17;
  const std::string text = TextGenerator(params.seed).generate(params.bytes_per_file, 0);
  for (const Bytes block : {256_KB, 512_KB}) {
    for (Bytes offset = 0; offset < params.bytes_per_file; offset += block) {
      expect_map_matches_tokenizer(params, text, offset, block);
      if (HasFatalFailure()) return;
    }
  }
}

// Parameterized sweep: correctness must hold across file counts/sizes.
class WordCountSweep : public ::testing::TestWithParam<std::tuple<int, Bytes>> {};

TEST_P(WordCountSweep, EndToEndTotalsMatchCorpus) {
  const auto [files, bytes] = GetParam();
  WordCountParams params;
  params.num_files = static_cast<std::size_t>(files);
  params.bytes_per_file = bytes;
  WordCount wc(params);

  harness::WorldConfig config;
  auto result = harness::run_workload(config, harness::RunMode::kUPlus, wc);
  ASSERT_TRUE(result.has_value());
  const auto counts = WordCount::result_of(*result);
  const auto reference = wc.reference_counts();
  EXPECT_EQ(*counts, reference);
}

INSTANTIATE_TEST_SUITE_P(FilesAndSizes, WordCountSweep,
                         ::testing::Values(std::make_tuple(1, 32_KB),
                                           std::make_tuple(2, 64_KB),
                                           std::make_tuple(4, 128_KB),
                                           std::make_tuple(8, 32_KB)));

// ---- keyed reduce and digest against the string fold ----------------------

// The digest WordCount has always folded, over spelled-out partitions,
// byte by byte: the partition count, then per partition its size and
// each (word, count) in word order, words length-prefixed. Keyed
// partitions must digest to exactly this.
std::uint64_t string_fold(const std::vector<WordCounts>& partitions) {
  Fnv64 h;
  const auto mix_u64 = [&h](std::uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    h.mix_bytes(bytes, sizeof(bytes));
  };
  mix_u64(partitions.size());
  for (const WordCounts& counts : partitions) {
    mix_u64(counts.size());
    for (const auto& [word, count] : counts) {
      mix_u64(word.size());
      h.mix_bytes(word.data(), word.size());
      mix_u64(static_cast<std::uint64_t>(count));
    }
  }
  return h.value();
}

// Checks a finished result of `wc` against the string fold and against
// `expected` (the answer over all partitions), and that every word sits
// in the partition the hash partitioner names.
void expect_result_matches_string_fold(const WordCount& wc, const mr::JobResult& result,
                                       const WordCounts& expected) {
  std::vector<WordCounts> partitions;
  WordTally all;
  const auto reducers = result.reduce_results.size();
  for (std::size_t r = 0; r < reducers; ++r) {
    partitions.push_back(WordCount::counts_of(result.reduce_results[r]));
    EXPECT_TRUE(std::is_sorted(partitions.back().begin(), partitions.back().end()));
    for (const auto& [word, count] : partitions.back()) {
      if (reducers > 1) {
        EXPECT_EQ(stable_hash64(word) % reducers, r) << word;
      }
      EXPECT_TRUE(all.emplace(word, count).second) << "word in two partitions: " << word;
    }
  }
  EXPECT_EQ(wc.result_digest(result), string_fold(partitions));
  EXPECT_EQ(sorted_counts(all), expected);
}

TEST(WordCountKeyed, RandomSplitsMatchTheStringFoldAndTheTokenizer) {
  WordCountParams params;
  params.num_files = 1;
  params.bytes_per_file = 16_KB;
  params.seed = 23;
  const std::string text = TextGenerator(params.seed).generate(params.bytes_per_file, 0);
  const std::vector<std::string> words = draw_spellings(params.seed, params.vocabulary);
  const std::set<std::string_view> vocabulary(words.begin(), words.end());
  RngStream rng(9, "keyed-split-geometry");
  int word_tails = 0;
  int stranger_tails = 0;
  for (int trial = 0; trial < 24; ++trial) {
    // Consecutive splits of random lengths, many shorter than a word.
    std::vector<std::pair<Bytes, Bytes>> splits;  // (offset, length)
    WordTally tally;
    for (Bytes offset = 0; offset < params.bytes_per_file;) {
      const Bytes room = params.bytes_per_file - offset;
      const Bytes length = std::min(room, trial % 2 == 0 ? rng.next_int(1, 40)
                                                         : rng.next_int(1, 4_KB));
      splits.emplace_back(offset, length);
      tokenize_into(std::string_view(text).substr(static_cast<std::size_t>(offset),
                                                  static_cast<std::size_t>(length)),
                    tally);
      // Classify the fragments this boundary cuts.
      const auto cut = static_cast<std::size_t>(offset + length);
      if (cut < text.size() && text[cut] != ' ' && text[cut - 1] != ' ') {
        std::size_t lo = cut;
        while (lo > 0 && text[lo - 1] != ' ') --lo;
        std::size_t hi = cut;
        while (hi < text.size() && text[hi] != ' ') ++hi;
        for (const std::string_view fragment : {std::string_view(text).substr(lo, cut - lo),
                                                std::string_view(text).substr(cut, hi - cut)}) {
          ++(vocabulary.count(fragment) ? word_tails : stranger_tails);
        }
      }
      offset += length;
    }
    const WordCounts expected = sorted_counts(tally);
    for (const bool combiner : {true, false}) {
      params.use_combiner = combiner;
      WordCount wc(params);  // fresh: maps are memoised per (path, offset)
      std::vector<mr::MapOutcome> maps;
      for (const auto& [offset, length] : splits) {
        mr::InputSplit split;
        split.path = "/input/keyed/part-00000";
        split.offset = offset;
        split.length = length;
        maps.push_back(wc.execute_map(split));
      }
      for (const int reducers : {1, 3, 7}) {
        // shards[r][m] = map m's slice for reducer r.
        std::vector<std::vector<mr::MapOutcome>> shards(static_cast<std::size_t>(reducers));
        for (const mr::MapOutcome& map : maps) {
          std::vector<mr::MapOutcome> sliced = wc.partition_map_output(map, reducers);
          for (int r = 0; r < reducers; ++r) {
            shards[static_cast<std::size_t>(r)].push_back(sliced[static_cast<std::size_t>(r)]);
          }
        }
        mr::JobResult result;
        for (const auto& per_reducer : shards) {
          result.reduce_results.push_back(wc.execute_reduce(per_reducer).result);
        }
        SCOPED_TRACE(testing::Message() << "trial " << trial << ", combiner " << combiner
                                        << ", reducers " << reducers);
        expect_result_matches_string_fold(wc, result, expected);
        if (HasFailure()) return;
      }
    }
  }
  // Cut tails both spelled vocabulary words and spelled none.
  EXPECT_GT(word_tails, 20);
  EXPECT_GT(stranger_tails, 20);
}

class WordCountKeyedRuns : public ::testing::TestWithParam<int> {};

TEST_P(WordCountKeyedRuns, WholeRunMatchesTheStringFoldAndTheReference) {
  const int reducers = GetParam();
  WordCountParams params;
  params.num_files = 3;
  params.bytes_per_file = 256_KB;
  WordCount wc(params);
  for (const harness::RunMode mode : {harness::RunMode::kHadoop, harness::RunMode::kSpark}) {
    SCOPED_TRACE(harness::run_mode_name(mode));
    harness::WorldConfig config;
    harness::World world(config, mode);
    auto result = world.run(wc, [reducers](mr::JobSpec& spec) { spec.num_reducers = reducers; });
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(result->succeeded);
    ASSERT_EQ(result->reduce_results.size(), static_cast<std::size_t>(reducers));
    expect_result_matches_string_fold(wc, *result, wc.reference_counts());
  }
}

INSTANTIATE_TEST_SUITE_P(Reducers, WordCountKeyedRuns, ::testing::Values(1, 3, 7));

// ---- map memo --------------------------------------------------------------

// A map of `split` by a fresh instance of `W` built from `params`.
template <typename W, typename Params>
mr::MapOutcome fresh_map(const Params& params, const mr::InputSplit& split) {
  return W(params).execute_map(split);
}

mr::InputSplit byte_split(std::string path, Bytes offset, Bytes length) {
  mr::InputSplit split;
  split.path = std::move(path);
  split.offset = offset;
  split.length = length;
  return split;
}

// Cache misses while `fn` runs: the entries it built.
template <typename Fn>
std::uint64_t builds_during(Fn&& fn) {
  const std::uint64_t before = DatasetCache::instance().stats().misses;
  fn();
  return DatasetCache::instance().stats().misses - before;
}

TEST(MapMemo, WordCountSharesCountsByCorpusFileAndSplitOnly) {
  WordCountParams base;
  base.num_files = 2;
  base.bytes_per_file = 96_KB;
  base.seed = 0x3E3A;
  base.vocabulary = 5000;
  const mr::InputSplit split = byte_split("/input/memo/part-00001", 16_KB, 64_KB);
  const auto shared = fresh_map<WordCount>(base, split).data;
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(fresh_map<WordCount>(base, split).data, shared);
  // num_files does not change file 1's bytes.
  WordCountParams more_files = base;
  more_files.num_files = 3;
  EXPECT_EQ(fresh_map<WordCount>(more_files, split).data, shared);

  WordCountParams other_seed = base;
  other_seed.seed += 1;
  WordCountParams other_size = base;
  other_size.bytes_per_file = 128_KB;
  EXPECT_NE(fresh_map<WordCount>(other_seed, split).data, shared);
  EXPECT_NE(fresh_map<WordCount>(other_size, split).data, shared);
  EXPECT_NE(fresh_map<WordCount>(base, byte_split(split.path, 8_KB, 64_KB)).data, shared);
  EXPECT_NE(fresh_map<WordCount>(base, byte_split(split.path, 16_KB, 32_KB)).data, shared);
  EXPECT_NE(fresh_map<WordCount>(base, byte_split("/input/memo/part-00000", 16_KB, 64_KB)).data,
            shared);
}

TEST(MapMemo, UncombinedMapReadingSharedCountsReportsRawPairs) {
  WordCountParams combined;
  combined.num_files = 1;
  combined.bytes_per_file = 64_KB;
  combined.seed = 0x3E3B;
  combined.vocabulary = 5000;
  WordCountParams raw = combined;
  raw.use_combiner = false;
  const mr::InputSplit split = byte_split("/input/memo/part-00000", 0, 64_KB);
  const mr::MapOutcome with = fresh_map<WordCount>(combined, split);
  mr::MapOutcome without;
  EXPECT_EQ(builds_during([&] { without = fresh_map<WordCount>(raw, split); }), 0u);
  EXPECT_EQ(without.data, with.data);

  // The oracle: tokenising the split's text.
  WordTally tally;
  tokenize_into(TextGenerator(combined.seed, combined.vocabulary).generate(64_KB, 0), tally);
  Bytes raw_bytes = 0;
  std::int64_t tokens = 0;
  for (const auto& [word, count] : tally) {
    raw_bytes += count * (static_cast<Bytes>(word.size()) + 9);
    tokens += count;
  }
  EXPECT_EQ(without.output_bytes, raw_bytes);
  EXPECT_EQ(without.output_records, tokens);
  EXPECT_EQ(with.output_records, static_cast<std::int64_t>(tally.size()));
  EXPECT_LT(with.output_bytes, without.output_bytes);
}

TEST(MapMemo, TeraSortSharesRunsByTableAndSplitOnly) {
  TeraSortParams base;
  base.rows = 4000;
  base.seed = 0x3E3C;
  const mr::InputSplit split = byte_split("/input/memo/part-00000", 100'000, 100'000);
  const auto shared = fresh_map<TeraSort>(base, split).data;
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(fresh_map<TeraSort>(base, split).data, shared);

  TeraSortParams other_seed = base;
  other_seed.seed += 1;
  TeraSortParams other_rows = base;
  other_rows.rows = 5000;
  EXPECT_NE(fresh_map<TeraSort>(other_seed, split).data, shared);
  EXPECT_NE(fresh_map<TeraSort>(other_rows, split).data, shared);
  EXPECT_NE(fresh_map<TeraSort>(base, byte_split(split.path, 0, 100'000)).data, shared);
  EXPECT_NE(fresh_map<TeraSort>(base, byte_split(split.path, 100'000, 50'000)).data, shared);
}

TEST(MapMemo, PiSharesPointsByHaltonRangeOnly) {
  PiParams base;
  base.total_samples = 40'000;
  base.num_maps = 4;
  base.fidelity_cap = 1'000'000;  // does not bind: every point is evaluated
  mr::InputSplit split;
  split.index_in_job = 1;
  const auto shared = fresh_map<Pi>(base, split).data;
  EXPECT_EQ(fresh_map<Pi>(base, split).data, shared);
  // A cap at or above the share evaluates the same points.
  PiParams loose_cap = base;
  loose_cap.fidelity_cap = 10'000;
  EXPECT_EQ(fresh_map<Pi>(loose_cap, split).data, shared);

  // A binding cap evaluates fewer points: its own entry, scaled per
  // instance to the map's full share.
  PiParams tight_cap = base;
  tight_cap.fidelity_cap = 5'000;
  mr::MapOutcome capped;
  EXPECT_EQ(builds_during([&] { capped = fresh_map<Pi>(tight_cap, split); }), 1u);
  EXPECT_EQ(std::static_pointer_cast<const PiResult>(capped.data)->total, 10'000);
  split.index_in_job = 2;
  EXPECT_NE(fresh_map<Pi>(base, split).data, shared);
}

// ---- reduce and digest memo -------------------------------------------------

// The maps of a two-file WordCount, one split per file.
std::vector<mr::MapOutcome> wordcount_maps(const WordCount& wc) {
  std::vector<mr::MapOutcome> maps;
  for (std::size_t file = 0; file < wc.params().num_files; ++file) {
    maps.push_back(wc.execute_map(byte_split("/input/memo/part-0000" + std::to_string(file), 0,
                                             wc.params().bytes_per_file)));
  }
  return maps;
}

// The maps of a TeraSort, one split per block.
std::vector<mr::MapOutcome> terasort_maps(const TeraSort& ts) {
  const Bytes block = ts.total_input() / ts.params().blocks;
  std::vector<mr::MapOutcome> maps;
  for (int b = 0; b < ts.params().blocks; ++b) {
    maps.push_back(ts.execute_map(byte_split("/input/memo/part-00000", b * block, block)));
  }
  return maps;
}

std::vector<std::array<char, 10>> keys_of(const std::shared_ptr<const void>& rows) {
  std::vector<std::array<char, 10>> keys;
  for (const TeraRow& row : *std::static_pointer_cast<const TeraRows>(rows)) {
    keys.push_back(row.key);
  }
  return keys;
}

std::uint64_t serial_of(const std::shared_ptr<const void>& data) {
  return DatasetCache::instance().serial_of(data.get());
}

WordCountParams memo_wordcount(std::uint64_t seed) {
  WordCountParams params;
  params.num_files = 2;
  params.bytes_per_file = 32_KB;
  params.seed = seed;
  params.vocabulary = 5000;
  return params;
}

TeraSortParams memo_terasort(std::uint64_t seed) {
  TeraSortParams params;
  params.rows = 4000;
  params.blocks = 4;
  params.seed = seed;
  return params;
}

TEST(ReduceMemo, EqualInputsShareOneOutput) {
  const WordCount wc_a(memo_wordcount(0x4ED0)), wc_b(memo_wordcount(0x4ED0));
  const std::vector<mr::MapOutcome> runs = wordcount_maps(wc_a);
  const std::shared_ptr<const void> merged = wc_a.execute_reduce(runs).result;
  EXPECT_NE(serial_of(merged), 0u);
  EXPECT_EQ(wc_b.execute_reduce(wordcount_maps(wc_b)).result, merged);
  {
    const DatasetCache::DerivedBypass afresh;
    EXPECT_EQ(WordCount::counts_of(merged),
              WordCount::counts_of(wc_a.execute_reduce(wordcount_maps(wc_a)).result));
  }
  // Reordered runs are another entry (with the same counts); one run
  // left is its own output.
  const std::vector<mr::MapOutcome> reordered = {runs[1], runs[0]};
  const std::shared_ptr<const void> swapped = wc_a.execute_reduce(reordered).result;
  EXPECT_NE(swapped, merged);
  EXPECT_EQ(WordCount::counts_of(swapped), WordCount::counts_of(merged));
  mr::MapOutcome dropped = runs[0];
  dropped.data.reset();
  const std::vector<mr::MapOutcome> one_left = {dropped, runs[1]};
  EXPECT_EQ(wc_a.execute_reduce(one_left).result, runs[1].data);

  const TeraSort ts_a(memo_terasort(0x4ED1)), ts_b(memo_terasort(0x4ED1));
  const std::vector<mr::MapOutcome> blocks = terasort_maps(ts_a);
  const std::shared_ptr<const void> sorted = ts_a.execute_reduce(blocks).result;
  EXPECT_NE(serial_of(sorted), 0u);
  EXPECT_EQ(ts_b.execute_reduce(terasort_maps(ts_b)).result, sorted);
  {
    const DatasetCache::DerivedBypass afresh;
    EXPECT_EQ(keys_of(sorted), keys_of(ts_a.execute_reduce(terasort_maps(ts_a)).result));
  }
  const std::vector<mr::MapOutcome> shuffled = {blocks[2], blocks[0], blocks[3], blocks[1]};
  const std::shared_ptr<const void> resorted = ts_a.execute_reduce(shuffled).result;
  EXPECT_NE(resorted, sorted);
  EXPECT_EQ(keys_of(resorted), keys_of(sorted));
  const std::shared_ptr<const void> three = ts_a.execute_reduce(std::span(blocks).first(3)).result;
  EXPECT_NE(three, sorted);
  EXPECT_EQ(std::static_pointer_cast<const TeraRows>(three)->size(), 3000u);
}

TEST(ReduceMemo, UncachedShardsComputeAfresh) {
  const WordCount wc(memo_wordcount(0x4ED2));
  const std::vector<mr::MapOutcome> runs = wordcount_maps(wc);
  constexpr int kReducers = 3;
  std::vector<std::vector<mr::MapOutcome>> shards(kReducers);
  for (const mr::MapOutcome& run : runs) {
    std::vector<mr::MapOutcome> parts = wc.partition_map_output(run, kReducers);
    for (int r = 0; r < kReducers; ++r) {
      EXPECT_EQ(serial_of(parts[static_cast<std::size_t>(r)].data), 0u);
      shards[static_cast<std::size_t>(r)].push_back(std::move(parts[static_cast<std::size_t>(r)]));
    }
  }
  WordCounts all;
  for (const std::vector<mr::MapOutcome>& inputs : shards) {
    const std::shared_ptr<const void> merged = wc.execute_reduce(inputs).result;
    EXPECT_EQ(serial_of(merged), 0u);
    EXPECT_NE(wc.execute_reduce(inputs).result, merged);
    const WordCounts counts = WordCount::counts_of(merged);
    all.insert(all.end(), counts.begin(), counts.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, wc.reference_counts());
}

TEST(DigestMemo, SteppedFoldEqualsPlainFold) {
  const WordCount wc(memo_wordcount(0x4ED3));
  const std::vector<mr::MapOutcome> runs = wordcount_maps(wc);
  const std::shared_ptr<const void> merged = wc.execute_reduce(runs).result;
  const std::shared_ptr<const void> uncached = wc.partition_map_output(runs[1], 2)[0].data;
  const TeraSort ts(memo_terasort(0x4ED3));
  const std::vector<mr::MapOutcome> blocks = terasort_maps(ts);

  // R = 1, 2 and 3; the same cached partition at different positions
  // and states, next to uncached and null ones.
  const std::vector<std::vector<std::shared_ptr<const void>>> wordcount_results = {
      {merged},
      {runs[0].data, nullptr},
      {runs[0].data, uncached, runs[0].data},
  };
  const std::vector<std::vector<std::shared_ptr<const void>>> terasort_results = {
      {ts.execute_reduce(blocks).result},
      {nullptr, blocks[1].data},
      {blocks[0].data, blocks[1].data, nullptr},
  };
  const auto check = [](const Workload& workload,
                        const std::vector<std::shared_ptr<const void>>& partitions) {
    mr::JobResult result;
    result.reduce_results = partitions;
    result.reduce_result = partitions.front();
    std::uint64_t plain = 0;
    {
      const DatasetCache::DerivedBypass afresh;
      plain = workload.result_digest(result);
    }
    EXPECT_EQ(workload.result_digest(result), plain);
    // Every step is memoized now.
    EXPECT_EQ(builds_during([&] { EXPECT_EQ(workload.result_digest(result), plain); }), 0u);
  };
  for (const auto& partitions : wordcount_results) check(wc, partitions);
  for (const auto& partitions : terasort_results) check(ts, partitions);
}

TEST(DigestMemo, ConcurrentEqualJobsBuildOneReduceAndOneDigestStep) {
  TeraSortParams params = memo_terasort(0x4ED4);
  params.rows = 200'000;
  const TeraSort ts(params);
  const std::vector<mr::MapOutcome> blocks = terasort_maps(ts);
  std::atomic<int> arrived{0};
  std::shared_ptr<const void> results[2];
  std::uint64_t digests[2] = {0, 0};
  const std::uint64_t builds = builds_during([&] {
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        ++arrived;
        while (arrived.load() < 2) std::this_thread::yield();
        mr::JobResult result;
        result.reduce_results = {ts.execute_reduce(blocks).result};
        results[t] = result.reduce_results.front();
        digests[t] = ts.result_digest(result);
      });
    }
    for (std::thread& thread : threads) thread.join();
  });
  EXPECT_EQ(builds, 2u);  // the reduce and its digest step
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(digests[0], digests[1]);
}

// ---- terasort -------------------------------------------------------------

TEST(TeraSortLogic, StageCreatesRequestedBlockCount) {
  TeraSortParams params;
  params.rows = 40000;  // 4 MB
  params.blocks = 4;
  TeraSort ts(params);
  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::a3_paper_cluster());
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});
  const auto paths = ts.stage(hdfs);
  const auto splits = mr::compute_splits(hdfs, paths);
  EXPECT_EQ(splits.size(), 4u);
  Bytes total = 0;
  for (const auto& s : splits) total += s.length;
  EXPECT_EQ(total, ts.total_input());
}

TEST(TeraSortLogic, MapProducesSortedRun) {
  TeraSortParams params;
  params.rows = 10000;
  params.blocks = 2;
  TeraSort ts(params);
  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::a3_paper_cluster());
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});
  const auto splits = mr::compute_splits(hdfs, ts.stage(hdfs));
  const auto outcome = ts.execute_map(splits[0]);
  const auto& run = *std::static_pointer_cast<const TeraRows>(outcome.data);
  EXPECT_TRUE(std::is_sorted(run.begin(), run.end()));
  EXPECT_EQ(outcome.output_bytes, splits[0].length);
}

TEST(TeraSortLogic, OrderKeyOrdersAsTheCharArray) {
  // Printable keys, every byte position varied, plus shared prefixes.
  RngStream rng(9, "order-key");
  std::vector<TeraRow> rows(2000);
  for (TeraRow& row : rows) {
    for (char& c : row.key) c = static_cast<char>(' ' + rng.next_int(0, 94));
  }
  for (std::size_t i = 1; i < rows.size(); i += 3) {
    const auto shared = static_cast<std::ptrdiff_t>(rng.next_int(0, 10));
    std::copy_n(rows[i - 1].key.begin(), shared, rows[i].key.begin());
  }
  for (const TeraRow& a : rows) {
    for (std::size_t j = 0; j < rows.size(); j += 7) {
      ASSERT_EQ(a < rows[j], a.key < rows[j].key);
    }
  }
}

class TeraSortSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TeraSortSweep, OutputIsTotallyOrderedPermutation) {
  TeraSortParams params;
  params.rows = GetParam();
  params.blocks = 4;
  TeraSort ts(params);

  harness::WorldConfig config;
  auto result = harness::run_workload(config, harness::RunMode::kUPlus, ts);
  ASSERT_TRUE(result.has_value());
  const auto sorted = TeraSort::result_of(*result);
  ASSERT_EQ(static_cast<std::int64_t>(sorted->size()), params.rows);
  EXPECT_TRUE(std::is_sorted(sorted->begin(), sorted->end()));
  // Permutation check: every original payload tag appears exactly once.
  std::vector<bool> seen(static_cast<std::size_t>(params.rows), false);
  for (const auto& row : *sorted) {
    ASSERT_LT(row.payload_tag, seen.size());
    EXPECT_FALSE(seen[row.payload_tag]);
    seen[row.payload_tag] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(RowCounts, TeraSortSweep, ::testing::Values(1000, 10000, 50000));

// ---- pi ---------------------------------------------------------------------

TEST(PiLogic, HaltonPointsAreInUnitSquareAndDistinct) {
  std::set<std::pair<double, double>> points;
  for (int i = 1; i <= 1000; ++i) {
    const auto [x, y] = Pi::halton_point(i);
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    EXPECT_GE(y, 0.0);
    EXPECT_LT(y, 1.0);
    points.insert({x, y});
  }
  EXPECT_EQ(points.size(), 1000u);
}

TEST(PiLogic, EstimateConvergesToPi) {
  PiParams params;
  params.total_samples = 4000000;
  params.num_maps = 4;
  Pi pi(params);
  harness::WorldConfig config;
  auto result = harness::run_workload(config, harness::RunMode::kUPlus, pi);
  ASSERT_TRUE(result.has_value());
  const auto estimate = Pi::result_of(*result);
  EXPECT_EQ(estimate->total, params.total_samples);
  EXPECT_NEAR(estimate->estimate(), M_PI, 0.01);
}

TEST(PiLogic, FidelityCapScalesComputeNotAccuracyModel) {
  PiParams params;
  params.total_samples = 100000000;  // far beyond the cap
  params.num_maps = 4;
  params.fidelity_cap = 100000;
  Pi pi(params);
  mr::InputSplit split;
  split.index_in_job = 0;
  const auto outcome = pi.execute_map(split);
  // Timed work reflects the FULL sample count.
  EXPECT_NEAR(outcome.core_seconds, 25000000 / params.samples_per_core_second, 1e-9);
  const auto& partial = *std::static_pointer_cast<const PiResult>(outcome.data);
  EXPECT_EQ(partial.total, 25000000);
  // The scaled inside-count still gives a sane estimate.
  EXPECT_NEAR(4.0 * partial.inside / partial.total, M_PI, 0.05);
}

TEST(PiLogic, MapsSplitSamplesEvenly) {
  // (5, 4) rounds the share up to 2, which leaves the last map nothing.
  for (const auto& [samples, maps] : {std::pair{10, 4}, {5, 4}, {1, 4}, {7, 6}}) {
    PiParams params;
    params.total_samples = samples;
    params.num_maps = maps;
    Pi pi(params);
    std::int64_t total = 0;
    for (int i = 0; i < maps; ++i) {
      mr::InputSplit split;
      split.index_in_job = static_cast<std::size_t>(i);
      const auto outcome = pi.execute_map(split);
      const auto& partial = *std::static_pointer_cast<const PiResult>(outcome.data);
      EXPECT_GE(partial.total, 0) << samples << " over " << maps << ", map " << i;
      EXPECT_GE(partial.inside, 0) << samples << " over " << maps << ", map " << i;
      EXPECT_GE(outcome.core_seconds, 0.0) << samples << " over " << maps << ", map " << i;
      total += partial.total;
    }
    EXPECT_EQ(total, samples) << samples << " over " << maps;
  }
}

// The digit loop the Halton kernel replaced: the oracle.
double radical_inverse_loop(std::int64_t index, int base) {
  double result = 0.0;
  double f = 1.0 / base;
  while (index > 0) {
    result += f * static_cast<double>(index % base);
    index /= base;
    f /= base;
  }
  return result;
}

// Every point of [begin, begin + count) must be bit-identical to the
// digit loop's, from one batch call and from single-point calls.
void expect_halton_matches_loop(std::int64_t begin, std::int64_t count) {
  const auto n = static_cast<std::size_t>(count);
  std::vector<double> xs(n), ys(n), loop_xs(n), loop_ys(n), point_xs(n), point_ys(n);
  Pi::halton_points(begin, xs, ys);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t index = begin + static_cast<std::int64_t>(i);
    loop_xs[i] = radical_inverse_loop(index, 2);
    loop_ys[i] = radical_inverse_loop(index, 3);
    std::tie(point_xs[i], point_ys[i]) = Pi::halton_point(index);
  }
  const std::size_t size = n * sizeof(double);
  EXPECT_EQ(std::memcmp(xs.data(), loop_xs.data(), size), 0) << "base 2 from " << begin;
  EXPECT_EQ(std::memcmp(ys.data(), loop_ys.data(), size), 0) << "base 3 from " << begin;
  EXPECT_EQ(std::memcmp(point_xs.data(), loop_xs.data(), size), 0) << "point x from " << begin;
  EXPECT_EQ(std::memcmp(point_ys.data(), loop_ys.data(), size), 0) << "point y from " << begin;
}

TEST(PiLogic, HaltonKernelIsBitIdenticalToTheDigitLoop) {
  expect_halton_matches_loop(0, 200000);
  // Around the base-3 table's span (3^10), a deep base-3 carry (3^19),
  // the multiple of 3^10 nearest 2^31, 2^31 itself, and the base-2
  // kernel's exactness limit (2^53); each window spans a change of the
  // high base-3 digits.
  for (const std::int64_t edge :
       {std::int64_t{59049}, std::int64_t{1162261467}, std::int64_t{59049} * 36368,
        std::int64_t{1} << 31, std::int64_t{1} << 53}) {
    expect_halton_matches_loop(edge - 5000, 10000);
  }
  expect_halton_matches_loop(-3, 6);  // the loop gives 0 below index 1
  // Every map start of the paper's sweeps: multiples of 25M up to 1.6B
  // cover the k * 25M (100m) and k * 100M (400m) starts and beyond.
  for (std::int64_t start = 25'000'000; start <= 1'600'000'000; start += 25'000'000) {
    expect_halton_matches_loop(start, 5000);
  }
}

}  // namespace
}  // namespace mrapid::wl
