// Tests for the workloads: the text generator, WordCount, TeraSort and
// PI — these verify the *real computation* (counts, sortedness, pi
// accuracy), not just the simulated timing.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <tuple>

#include "cluster/azure.h"
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
  const auto& merged = *std::static_pointer_cast<const WordCounts>(reduced.result);
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

// One map over bytes [offset, offset + length) of file 0, from a fresh
// instance: maps are memoised per (path, offset).
mr::MapOutcome map_range(const WordCountParams& params, Bytes offset, Bytes length) {
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
    const auto& counts = *std::static_pointer_cast<const WordCounts>(outcome.data);
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
