// Multi-reducer tests: hash/range partitioners, all-to-all shuffle,
// and the global correctness property — TeraSort's concatenated part
// files are totally ordered, WordCount's partitions are disjoint and
// merge back to the reference counts.

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/azure.h"
#include "harness/world.h"
#include "mapreduce/split.h"
#include "workloads/pi.h"
#include "workloads/terasort.h"
#include "workloads/wordcount.h"

namespace mrapid::mr {
namespace {

using harness::RunMode;
using harness::WorldConfig;

TEST(Partitioner, DefaultSendsAllToReducerZero) {
  class Dummy : public JobLogic {
   public:
    std::string name() const override { return "d"; }
    MapOutcome execute_map(const InputSplit&) const override { return {}; }
    ReduceOutcome execute_reduce(std::span<const MapOutcome>) const override { return {}; }
  } logic;
  MapOutcome outcome;
  outcome.output_bytes = 100;
  const auto shards = logic.partition_map_output(outcome, 3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].output_bytes, 100);
  EXPECT_EQ(shards[1].output_bytes, 0);
  EXPECT_EQ(shards[2].output_bytes, 0);
}

TEST(Partitioner, WordCountHashCoversAllWordsDisjointly) {
  wl::WordCountParams params;
  params.num_files = 1;
  params.bytes_per_file = 128_KB;
  wl::WordCount wc(params);

  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::a3_paper_cluster());
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});
  const auto splits = compute_splits(hdfs, wc.stage(hdfs));
  const auto outcome = wc.execute_map(splits[0]);
  const auto shards = wc.partition_map_output(outcome, 4);
  ASSERT_EQ(shards.size(), 4u);

  const auto full_counts = wl::WordCount::counts_of(outcome.data);
  const wl::WordTally full(full_counts.begin(), full_counts.end());
  std::size_t words = 0;
  Bytes bytes = 0;
  for (const auto& shard : shards) {
    const auto counts = wl::WordCount::counts_of(shard.data);
    EXPECT_TRUE(std::is_sorted(counts.begin(), counts.end()));
    for (const auto& [word, count] : counts) {
      EXPECT_EQ(full.at(word), count);  // counts preserved
    }
    words += counts.size();
    bytes += shard.output_bytes;
  }
  EXPECT_EQ(words, full.size());            // disjoint cover
  EXPECT_EQ(bytes, outcome.output_bytes);   // byte accounting conserved
}

TEST(Partitioner, TeraSortRangeShardsAreOrderedBuckets) {
  wl::TeraSortParams params;
  params.rows = 20000;
  wl::TeraSort ts(params);

  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::a3_paper_cluster());
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});
  const auto splits = compute_splits(hdfs, ts.stage(hdfs));
  const auto outcome = ts.execute_map(splits[0]);
  const auto shards = ts.partition_map_output(outcome, 3);
  ASSERT_EQ(shards.size(), 3u);

  std::int64_t rows = 0;
  for (std::size_t r = 0; r < shards.size(); ++r) {
    const auto& bucket = *std::static_pointer_cast<const wl::TeraRows>(shards[r].data);
    EXPECT_TRUE(std::is_sorted(bucket.begin(), bucket.end()));
    rows += static_cast<std::int64_t>(bucket.size());
    // Every key in bucket r precedes every key in bucket r+1.
    if (r + 1 < shards.size()) {
      const auto& next = *std::static_pointer_cast<const wl::TeraRows>(shards[r + 1].data);
      if (!bucket.empty() && !next.empty()) {
        EXPECT_FALSE(next.front() < bucket.back());
      }
    }
  }
  EXPECT_EQ(rows, outcome.output_records);
}

class MultiReducerSweep
    : public ::testing::TestWithParam<std::tuple<int, harness::RunMode>> {};

TEST_P(MultiReducerSweep, WordCountPartitionsMergeToReference) {
  const auto [reducers, mode] = GetParam();
  wl::WordCountParams params;
  params.num_files = 4;
  params.bytes_per_file = 512_KB;
  wl::WordCount wc(params);

  WorldConfig config;
  harness::World world(config, mode);
  auto result = world.run(wc, [reducers](JobSpec& spec) { spec.num_reducers = reducers; });
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->succeeded);
  ASSERT_EQ(result->profile.reduces.size(), static_cast<std::size_t>(reducers));
  ASSERT_EQ(result->reduce_results.size(), static_cast<std::size_t>(reducers));

  wl::WordTally merged;
  for (const auto& partial : result->reduce_results) {
    const auto counts = wl::WordCount::counts_of(partial);
    for (const auto& [word, count] : counts) {
      EXPECT_EQ(merged.count(word), 0u) << "word in two partitions: " << word;
      merged[word] = count;
    }
  }
  EXPECT_EQ(wl::sorted_counts(merged), wc.reference_counts());
}

INSTANTIATE_TEST_SUITE_P(
    ReducersAndModes, MultiReducerSweep,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(harness::RunMode::kHadoop,
                                         harness::RunMode::kDPlus,
                                         harness::RunMode::kUPlus)));

TEST(MultiReducer, TeraSortConcatenatedPartsAreGloballySorted) {
  wl::TeraSortParams params;
  params.rows = 40000;
  wl::TeraSort ts(params);

  WorldConfig config;
  harness::World world(config, RunMode::kDPlus);
  auto result = world.run(ts, [](JobSpec& spec) { spec.num_reducers = 4; });
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->succeeded);
  ASSERT_EQ(result->reduce_results.size(), 4u);

  wl::TeraRows all;
  for (const auto& partial : result->reduce_results) {
    const auto& part = *std::static_pointer_cast<const wl::TeraRows>(partial);
    all.insert(all.end(), part.begin(), part.end());
  }
  ASSERT_EQ(static_cast<std::int64_t>(all.size()), params.rows);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

TEST(MultiReducer, ShuffleBytesConservedAcrossPartitions) {
  wl::WordCountParams params;
  params.num_files = 4;
  params.bytes_per_file = 512_KB;
  wl::WordCount wc(params);

  WorldConfig config;
  harness::World world(config, RunMode::kHadoop);
  auto result = world.run(wc, [](JobSpec& spec) { spec.num_reducers = 3; });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->profile.shuffled_bytes, result->profile.total_map_output);
}

TEST(MultiReducer, ReducersLandOnDistinctContainers) {
  wl::WordCountParams params;
  params.num_files = 4;
  params.bytes_per_file = 512_KB;
  wl::WordCount wc(params);

  WorldConfig config;
  harness::World world(config, RunMode::kDPlus);
  auto result = world.run(wc, [](JobSpec& spec) { spec.num_reducers = 4; });
  ASSERT_TRUE(result.has_value());
  // D+ spread: 4 reducers across 4 workers (one each, usually).
  std::set<cluster::NodeId> nodes;
  for (const auto& task : result->profile.reduces) nodes.insert(task.node);
  EXPECT_GE(nodes.size(), 3u);
}

TEST(MultiReducer, PiWithMultipleReducersStillExact) {
  // PI's default partitioner sends everything to reducer 0; the other
  // reducers see empty input — must still terminate cleanly.
  wl::PiParams params;
  params.total_samples = 1000000;
  wl::Pi pi(params);

  WorldConfig config;
  harness::World world(config, RunMode::kUPlus);
  auto result = world.run(pi, [](JobSpec& spec) { spec.num_reducers = 2; });
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->succeeded);
  const auto& combined = *std::static_pointer_cast<const wl::PiResult>(result->reduce_results[0]);
  EXPECT_EQ(combined.total, params.total_samples);
}

}  // namespace
}  // namespace mrapid::mr
