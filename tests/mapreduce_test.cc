// Tests for the MapReduce runtime: splits, spill accounting, map/reduce
// phase execution, the distributed and Uber AMs, and the job client.

#include <gtest/gtest.h>

#include "cluster/azure.h"
#include "harness/world.h"
#include "mapreduce/split.h"
#include "mapreduce/task_runner.h"
#include "workloads/pi.h"
#include "workloads/wordcount.h"

namespace mrapid::mr {
namespace {

// A tiny synthetic JobLogic with fully controlled sizes/costs.
class FixedLogic : public wl::Workload {
 public:
  FixedLogic(Bytes out_per_map, double map_seconds)
      : out_per_map_(out_per_map), map_seconds_(map_seconds) {}

  std::string name() const override { return "fixed"; }

  std::vector<std::string> stage(hdfs::Hdfs& hdfs) override {
    std::vector<std::string> paths;
    for (int i = 0; i < files_; ++i) {
      std::string path = "/input/fixed/part-" + std::to_string(i);
      if (!hdfs.namenode().exists(path)) hdfs.preload_file(path, 8_MB);
      paths.push_back(std::move(path));
    }
    return paths;
  }

  MapOutcome execute_map(const InputSplit&) const override {
    MapOutcome outcome;
    outcome.output_bytes = out_per_map_;
    outcome.output_records = 100;
    outcome.core_seconds = map_seconds_;
    outcome.data = std::make_shared<int>(1);
    return outcome;
  }

  ReduceOutcome execute_reduce(std::span<const MapOutcome> maps) const override {
    ReduceOutcome outcome;
    outcome.output_bytes = 1_KB;
    outcome.core_seconds = 0.01;
    int total = 0;
    for (const auto& m : maps) {
      if (m.data) total += *std::static_pointer_cast<const int>(m.data);
    }
    outcome.result = std::make_shared<int>(total);
    return outcome;
  }

  std::uint64_t result_digest(const JobResult& result) const override {
    std::uint64_t digest = result.reduce_results.size();
    for (const auto& erased : result.reduce_results) {
      digest = digest * 31 +
               (erased ? static_cast<std::uint64_t>(
                             *std::static_pointer_cast<const int>(erased))
                       : 0);
    }
    return digest;
  }

  void set_files(int files) { files_ = files; }

 private:
  Bytes out_per_map_;
  double map_seconds_;
  int files_ = 4;
};

// ---- splits ----------------------------------------------------------

TEST(Splits, OneSplitPerBlockWithHosts) {
  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::a3_paper_cluster());
  hdfs::HdfsConfig config;
  config.block_size = 16_MB;
  hdfs::Hdfs hdfs(cluster, config);
  hdfs.preload_file("/a", 40_MB);  // 3 blocks: 16+16+8
  hdfs.preload_file("/b", 10_MB);  // 1 block

  const auto splits = compute_splits(hdfs, {"/a", "/b"});
  ASSERT_EQ(splits.size(), 4u);
  EXPECT_EQ(splits[0].length, 16_MB);
  EXPECT_EQ(splits[2].length, 8_MB);
  EXPECT_EQ(splits[3].path, "/b");
  for (std::size_t i = 0; i < splits.size(); ++i) {
    EXPECT_EQ(splits[i].index_in_job, i);
    EXPECT_EQ(splits[i].hosts.size(), 3u);
  }
  EXPECT_EQ(splits[1].offset, 16_MB);
}

TEST(Splits, EmptyFileYieldsNoSplits) {
  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::a3_paper_cluster());
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});
  hdfs.preload_file("/empty", 0);
  EXPECT_TRUE(compute_splits(hdfs, {"/empty"}).empty());
}

// ---- spill accounting --------------------------------------------------

TEST(SpillCount, ZeroOutputNoSpill) {
  EXPECT_EQ(spill_count(0, MRConfig{}), 0);
}

TEST(SpillCount, SmallOutputSpillsOnce) {
  EXPECT_EQ(spill_count(10_MB, MRConfig{}), 1);
}

TEST(SpillCount, LargeOutputSpillsMultipleTimes) {
  // Buffer 100 MB x 0.8 = 80 MB threshold.
  EXPECT_EQ(spill_count(100_MB, MRConfig{}), 2);
  EXPECT_EQ(spill_count(250_MB, MRConfig{}), 4);
}

TEST(SpillCount, ThresholdBoundaryIsExact) {
  const Bytes threshold = static_cast<Bytes>(100_MB * 0.8);
  EXPECT_EQ(spill_count(threshold, MRConfig{}), 1);
  EXPECT_EQ(spill_count(threshold + 1, MRConfig{}), 2);
}

// The client sees completion at its first status poll at or after the
// job's end, the poll clock starting at submission.
TEST(ClientPollTime, AlignsUpToThePollGrid) {
  const sim::SimTime submit = sim::SimTime::from_micros(2'500'000);
  const sim::SimDuration poll = sim::SimDuration::seconds(1.0);
  // No time elapsed: the submission instant is itself a poll tick.
  EXPECT_EQ(client_poll_time(submit, submit, poll).as_micros(), 2'500'000);
  // An exact multiple of the poll period is seen on that tick.
  EXPECT_EQ(client_poll_time(submit, submit + sim::SimDuration::seconds(3.0), poll).as_micros(),
            5'500'000);
  // One microsecond past a multiple waits for the next tick.
  EXPECT_EQ(client_poll_time(submit, sim::SimTime::from_micros(5'500'001), poll).as_micros(),
            6'500'000);
}

// ---- end-to-end per mode -------------------------------------------------

class JobRunTest : public ::testing::Test {
 protected:
  harness::WorldConfig config_;
};

TEST_F(JobRunTest, HadoopModeCompletesAndProfiles) {
  FixedLogic logic(1_MB, 0.2);
  auto result = harness::run_workload(config_, harness::RunMode::kHadoop, logic);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->succeeded);
  const JobProfile& p = result->profile;
  EXPECT_EQ(p.mode, ExecutionMode::kHadoopDistributed);
  EXPECT_EQ(p.maps.size(), 4u);
  EXPECT_GT(p.am_setup_seconds(), 2.0);   // AM allocation + launch + init
  EXPECT_GT(p.elapsed_seconds(), p.am_setup_seconds());
  EXPECT_EQ(p.total_input, 32_MB);
  EXPECT_EQ(p.total_map_output, 4_MB);
  EXPECT_EQ(*std::static_pointer_cast<const int>(result->reduce_result), 4);
  // Every map ran on a worker, never the master.
  for (const auto& task : p.maps) EXPECT_GT(task.node, 0);
  // Phase timestamps are ordered.
  for (const auto& task : p.maps) {
    EXPECT_LE(task.start.as_micros(), task.read_done.as_micros());
    EXPECT_LE(task.read_done.as_micros(), task.compute_done.as_micros());
    EXPECT_LE(task.compute_done.as_micros(), task.end.as_micros());
  }
}

TEST_F(JobRunTest, UberModeRunsEverythingInOneContainer) {
  FixedLogic logic(1_MB, 0.2);
  auto result = harness::run_workload(config_, harness::RunMode::kUber, logic);
  ASSERT_TRUE(result.has_value());
  const JobProfile& p = result->profile;
  ASSERT_EQ(p.containers_per_node.size(), 1u);
  // All maps and the reduce share the AM node.
  const cluster::NodeId am_node = p.containers_per_node[0].first;
  for (const auto& task : p.maps) EXPECT_EQ(task.node, am_node);
  EXPECT_EQ(p.reduce.node, am_node);
}

TEST_F(JobRunTest, UberMapsAreSequential) {
  FixedLogic logic(1_MB, 0.5);
  auto result = harness::run_workload(config_, harness::RunMode::kUber, logic);
  ASSERT_TRUE(result.has_value());
  // Sequential: no two maps overlap in time.
  const auto& maps = result->profile.maps;
  for (std::size_t i = 0; i + 1 < maps.size(); ++i) {
    for (std::size_t j = i + 1; j < maps.size(); ++j) {
      const bool disjoint = maps[i].end <= maps[j].start || maps[j].end <= maps[i].start;
      EXPECT_TRUE(disjoint) << "maps " << i << " and " << j << " overlap";
    }
  }
}

TEST_F(JobRunTest, UPlusMapsOverlap) {
  FixedLogic logic(1_MB, 0.5);
  auto result = harness::run_workload(config_, harness::RunMode::kUPlus, logic);
  ASSERT_TRUE(result.has_value());
  const auto& maps = result->profile.maps;
  bool any_overlap = false;
  for (std::size_t i = 0; i + 1 < maps.size(); ++i) {
    for (std::size_t j = i + 1; j < maps.size(); ++j) {
      if (maps[i].start < maps[j].end && maps[j].start < maps[i].end) any_overlap = true;
    }
  }
  EXPECT_TRUE(any_overlap);
}

TEST_F(JobRunTest, UPlusKeepsSmallIntermediateInMemory) {
  FixedLogic logic(1_MB, 0.1);
  auto result = harness::run_workload(config_, harness::RunMode::kUPlus, logic);
  ASSERT_TRUE(result.has_value());
  for (const auto& task : result->profile.maps) {
    EXPECT_TRUE(task.output_in_memory);
    EXPECT_EQ(task.spills, 0);
  }
}

TEST_F(JobRunTest, UberAlwaysSpills) {
  FixedLogic logic(1_MB, 0.1);
  auto result = harness::run_workload(config_, harness::RunMode::kUber, logic);
  ASSERT_TRUE(result.has_value());
  for (const auto& task : result->profile.maps) {
    EXPECT_FALSE(task.output_in_memory);
    EXPECT_EQ(task.spills, 1);
  }
}

TEST_F(JobRunTest, UPlusSpillsOnceCacheBudgetExhausted) {
  FixedLogic logic(10_MB, 0.1);
  harness::WorldConfig config;
  harness::World world(config, harness::RunMode::kUPlus);
  auto result = world.run(logic, [](JobSpec& spec) {
    spec.uber.memory_cache_budget = 25_MB;  // fits 2 of 4 outputs
  });
  ASSERT_TRUE(result.has_value());
  int in_memory = 0, spilled = 0;
  for (const auto& task : result->profile.maps) {
    (task.output_in_memory ? in_memory : spilled)++;
  }
  EXPECT_EQ(in_memory, 2);
  EXPECT_EQ(spilled, 2);
}

TEST_F(JobRunTest, DPlusBeatsHadoopOnShortJob) {
  FixedLogic logic(1_MB, 0.2);
  auto hadoop = harness::run_workload(config_, harness::RunMode::kHadoop, logic);
  auto dplus = harness::run_workload(config_, harness::RunMode::kDPlus, logic);
  ASSERT_TRUE(hadoop && dplus);
  EXPECT_LT(dplus->profile.elapsed_seconds(), hadoop->profile.elapsed_seconds());
}

TEST_F(JobRunTest, MapOnlyJobCompletesWithoutReducer) {
  FixedLogic logic(1_MB, 0.1);
  harness::WorldConfig config;
  harness::World world(config, harness::RunMode::kHadoop);
  auto result = world.run(logic, [](JobSpec& spec) { spec.num_reducers = 0; });
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->succeeded);
  EXPECT_EQ(result->profile.reduce.node, cluster::kInvalidNode);
}

TEST_F(JobRunTest, MultiWaveJobUsesWaves) {
  // 12 maps on a 4-node cluster (16 vcores - AM) still complete.
  FixedLogic logic(1_MB, 0.3);
  logic.set_files(12);
  auto result = harness::run_workload(config_, harness::RunMode::kHadoop, logic);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->profile.maps.size(), 12u);
  EXPECT_TRUE(result->succeeded);
}

TEST_F(JobRunTest, ClientObservesCompletionOnPollBoundary) {
  FixedLogic logic(1_MB, 0.2);
  auto result = harness::run_workload(config_, harness::RunMode::kHadoop, logic);
  ASSERT_TRUE(result.has_value());
  const auto& p = result->profile;
  ASSERT_NE(p.client_done_time.as_micros(), 0);
  const std::int64_t elapsed_us = (p.client_done_time - p.submit_time).as_micros();
  EXPECT_EQ(elapsed_us % 1000000, 0);  // aligned to the 1 s poll grid
  EXPECT_GE(p.client_done_time.as_micros(), p.finish_time.as_micros());
}

TEST_F(JobRunTest, ShuffleAccountsAllMapOutput) {
  FixedLogic logic(2_MB, 0.1);
  auto result = harness::run_workload(config_, harness::RunMode::kHadoop, logic);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->profile.shuffled_bytes, 8_MB);
  EXPECT_EQ(result->profile.shuffled_bytes, result->profile.total_map_output);
}

TEST_F(JobRunTest, LocalityCountsSumToMapCount) {
  FixedLogic logic(1_MB, 0.1);
  for (auto mode : {harness::RunMode::kHadoop, harness::RunMode::kDPlus,
                    harness::RunMode::kUber, harness::RunMode::kUPlus}) {
    auto result = harness::run_workload(config_, mode, logic);
    ASSERT_TRUE(result.has_value());
    const auto& p = result->profile;
    EXPECT_EQ(p.node_local_maps + p.rack_local_maps + p.off_rack_maps, p.maps.size());
  }
}

TEST_F(JobRunTest, DeterministicAcrossRuns) {
  FixedLogic logic(1_MB, 0.2);
  auto a = harness::run_workload(config_, harness::RunMode::kHadoop, logic);
  auto b = harness::run_workload(config_, harness::RunMode::kHadoop, logic);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->profile.finish_time.as_micros(), b->profile.finish_time.as_micros());
  EXPECT_EQ(a->profile.node_local_maps, b->profile.node_local_maps);
}

TEST_F(JobRunTest, DifferentSeedsStillComplete) {
  FixedLogic logic(1_MB, 0.2);
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 99ull}) {
    harness::WorldConfig config;
    config.seed = seed;
    auto result = harness::run_workload(config, harness::RunMode::kHadoop, logic);
    ASSERT_TRUE(result.has_value()) << "seed " << seed;
    EXPECT_TRUE(result->succeeded);
  }
}

}  // namespace
}  // namespace mrapid::mr
