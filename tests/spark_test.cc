// SparkLite tests: the comparison engine must produce bit-identical
// results to the MapReduce modes, pay its characteristic
// driver+executor launch overheads, and then execute tasks with
// millisecond dispatch.

#include <gtest/gtest.h>

#include "cluster/azure.h"
#include "harness/world.h"
#include "workloads/pi.h"
#include "workloads/terasort.h"
#include "workloads/wordcount.h"

namespace mrapid::spark {
namespace {

using harness::RunMode;
using harness::WorldConfig;

TEST(Spark, WordCountMatchesReference) {
  wl::WordCountParams params;
  params.num_files = 4;
  params.bytes_per_file = 1_MB;
  wl::WordCount wc(params);
  WorldConfig config;
  auto result = harness::run_workload(config, RunMode::kSpark, wc);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->succeeded);
  EXPECT_EQ(result->profile.mode, mr::ExecutionMode::kSparkLite);
  EXPECT_EQ(*wl::WordCount::result_of(*result), wc.reference_counts());
}

TEST(Spark, TeraSortTotalOrder) {
  wl::TeraSortParams params;
  params.rows = 20000;
  wl::TeraSort ts(params);
  WorldConfig config;
  auto result = harness::run_workload(config, RunMode::kSpark, ts);
  ASSERT_TRUE(result.has_value());
  const auto sorted = wl::TeraSort::result_of(*result);
  EXPECT_EQ(static_cast<std::int64_t>(sorted->size()), params.rows);
  EXPECT_TRUE(std::is_sorted(sorted->begin(), sorted->end()));
}

TEST(Spark, PiMatchesOtherModes) {
  wl::PiParams params;
  params.total_samples = 1000000;
  wl::Pi pi(params);
  WorldConfig config;
  auto spark = harness::run_workload(config, RunMode::kSpark, pi);
  auto uplus = harness::run_workload(config, RunMode::kUPlus, pi);
  ASSERT_TRUE(spark && uplus);
  EXPECT_EQ(wl::Pi::result_of(*spark)->inside, wl::Pi::result_of(*uplus)->inside);
}

TEST(Spark, PaysDriverAndExecutorLaunchOverheads) {
  wl::WordCountParams params;
  params.num_files = 2;
  params.bytes_per_file = 1_MB;
  wl::WordCount wc(params);
  WorldConfig config;
  auto result = harness::run_workload(config, RunMode::kSpark, wc);
  ASSERT_TRUE(result.has_value());
  // Driver: allocation wait + 1.5 s JVM + 2.5 s SparkContext; executors
  // stack another launch round on top before the first task runs.
  EXPECT_GT(result->profile.am_setup_seconds(), 4.0);
  EXPECT_GT((result->profile.first_map_start - result->profile.am_ready_time).as_seconds(),
            1.0);
}

TEST(Spark, SlowerThanMRapidForShortJobs) {
  // The paper's §V claim, reproduced: a warm-AM MRapid mode beats
  // Spark-on-YARN for a one-shot short job.
  wl::WordCountParams params;
  params.num_files = 4;
  params.bytes_per_file = 5_MB;
  wl::WordCount wc(params);
  WorldConfig config;
  auto spark = harness::run_workload(config, RunMode::kSpark, wc);
  auto uplus = harness::run_workload(config, RunMode::kUPlus, wc);
  ASSERT_TRUE(spark && uplus);
  EXPECT_GT(spark->profile.elapsed_seconds(), uplus->profile.elapsed_seconds());
}

TEST(Spark, FasterThanStockHadoopOnceRunning) {
  // With comparable slot counts, executors amortise task startup: the
  // map phase beats Hadoop's container-per-task approach (millisecond
  // dispatch vs 1.5 s JVM launches).
  wl::WordCountParams params;
  params.num_files = 12;
  params.bytes_per_file = 5_MB;
  wl::WordCount wc(params);
  WorldConfig config;
  config.spark.executors = 12;  // ~ the cluster's task-container capacity
  config.spark.executor_container = {1, 1024};  // slim executors so all fit
  auto spark = harness::run_workload(config, RunMode::kSpark, wc);
  auto hadoop = harness::run_workload(config, RunMode::kHadoop, wc);
  ASSERT_TRUE(spark && hadoop);
  EXPECT_LT(spark->profile.map_phase_seconds(), hadoop->profile.map_phase_seconds());
}

TEST(Spark, ExecutorCountRespected) {
  wl::WordCountParams params;
  params.num_files = 4;
  params.bytes_per_file = 1_MB;
  wl::WordCount wc(params);
  WorldConfig config;
  config.spark.executors = 2;
  auto result = harness::run_workload(config, RunMode::kSpark, wc);
  ASSERT_TRUE(result.has_value());
  // Driver + 2 executors.
  EXPECT_EQ(result->profile.containers_per_node.size(), 3u);
}

TEST(Spark, MultiPartitionShuffleWorks) {
  wl::WordCountParams params;
  params.num_files = 4;
  params.bytes_per_file = 512_KB;
  wl::WordCount wc(params);
  WorldConfig config;
  harness::World world(config, RunMode::kSpark);
  auto result = world.run(wc, [](mr::JobSpec& spec) { spec.num_reducers = 3; });
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->reduce_results.size(), 3u);
  wl::WordTally merged;
  for (const auto& partial : result->reduce_results) {
    const auto counts = wl::WordCount::counts_of(partial);
    for (const auto& [word, count] : counts) merged[word] += count;
  }
  EXPECT_EQ(wl::sorted_counts(merged), wc.reference_counts());
}

TEST(Spark, ReleasesClusterOnFinish) {
  wl::WordCountParams params;
  params.num_files = 2;
  params.bytes_per_file = 512_KB;
  wl::WordCount wc(params);
  WorldConfig config;
  harness::World world(config, RunMode::kSpark);
  auto result = world.run(wc);
  ASSERT_TRUE(result.has_value());
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(3));
  for (const auto& state : world.rm().nodes()) {
    EXPECT_EQ(state.used.vcores, 0) << "node " << state.id;
  }
}

TEST(Spark, RegistrationTimeoutStartsWithFewerExecutors) {
  // Ask for more executors than the cluster can hold: the stage must
  // still start (with what registered) after the timeout.
  wl::WordCountParams params;
  params.num_files = 4;
  params.bytes_per_file = 1_MB;
  wl::WordCount wc(params);
  WorldConfig config;
  config.spark.executors = 64;  // far beyond capacity
  config.spark.max_registered_wait = sim::SimDuration::seconds(5);
  auto result = harness::run_workload(config, RunMode::kSpark, wc);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->succeeded);
  EXPECT_EQ(*wl::WordCount::result_of(*result), wc.reference_counts());
}

// WordCount with a partition-call counter: SparkLite must partition
// each map output once, when the map finishes, however many reduce
// tasks read its shards.
class CountingWordCount final : public wl::WordCount {
 public:
  using wl::WordCount::WordCount;
  std::vector<mr::MapOutcome> partition_map_output(const mr::MapOutcome& outcome,
                                                   int reducers) const override {
    ++partition_calls;
    return wl::WordCount::partition_map_output(outcome, reducers);
  }
  mutable std::size_t partition_calls = 0;
};

TEST(Spark, PartitionsEachMapOutputOnce) {
  wl::WordCountParams params;
  params.num_files = 4;
  params.bytes_per_file = 512_KB;
  CountingWordCount wc(params);
  WorldConfig config;
  harness::World world(config, RunMode::kSpark);
  auto result = world.run(wc, [](mr::JobSpec& spec) { spec.num_reducers = 3; });
  ASSERT_TRUE(result.has_value() && result->succeeded);
  const std::size_t maps = result->profile.maps.size();
  ASSERT_GT(maps, 1u);
  EXPECT_EQ(wc.partition_calls, maps);
}

TEST(Spark, Deterministic) {
  wl::WordCountParams params;
  params.num_files = 4;
  params.bytes_per_file = 1_MB;
  wl::WordCount wc(params);
  WorldConfig config;
  auto a = harness::run_workload(config, RunMode::kSpark, wc);
  auto b = harness::run_workload(config, RunMode::kSpark, wc);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->profile.finish_time.as_micros(), b->profile.finish_time.as_micros());
}

}  // namespace
}  // namespace mrapid::spark
