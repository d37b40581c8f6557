// The shuffle engine (mapreduce/shuffle.h, mapreduce/task_runner.h):
// the partition-once MapOutputRegistry against fresh per-fetch
// partition calls under fuzzed outcomes (the oracle), the once-per-map
// partition-call count through a real job, and the fetch-engine edge
// cases — zero-map jobs, all-zero shards, the same-node in-memory
// path, and fetch re-announcement after a source-node crash
// mid-shuffle — each driven straight at a ReduceRunner over a registry
// announced up front, as a job driver does.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/azure.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "harness/world.h"
#include "hdfs/hdfs.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/task_runner.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "workloads/wordcount.h"

namespace mrapid {
namespace {

// Hash-partitions records across all reducers, the outcome's payload
// riding on every non-empty shard — a pure function of the outcome, so
// the registry's partition-once shards must match a fresh call exactly.
class HashLogic final : public mr::JobLogic {
 public:
  std::string name() const override { return "hash-logic"; }
  mr::MapOutcome execute_map(const mr::InputSplit&) const override { return {}; }
  mr::ReduceOutcome execute_reduce(std::span<const mr::MapOutcome>) const override {
    mr::ReduceOutcome out;
    out.output_bytes = 1_KB;
    out.core_seconds = 0.0005;
    return out;
  }
  std::vector<mr::MapOutcome> partition_map_output(const mr::MapOutcome& outcome,
                                                   int reducers) const override {
    std::vector<mr::MapOutcome> shards(static_cast<std::size_t>(reducers));
    const std::int64_t records = outcome.output_records;
    const Bytes per_record = records > 0 ? outcome.output_bytes / records : 0;
    for (std::int64_t rec = 0; rec < records; ++rec) {
      std::uint64_t h = static_cast<std::uint64_t>(rec) * 0x9E3779B97F4A7C15ull +
                        static_cast<std::uint64_t>(outcome.output_bytes);
      h ^= h >> 31;
      auto& shard = shards[h % static_cast<std::uint64_t>(reducers)];
      shard.output_bytes += per_record;
      shard.output_records += 1;
    }
    for (auto& shard : shards) {
      if (shard.output_records > 0) shard.data = outcome.data;
    }
    return shards;
  }
};

// Keeps the base-class partitioner (everything to reducer 0), so any
// other partition sees all-zero shards.
class ToReducerZeroLogic final : public mr::JobLogic {
 public:
  std::string name() const override { return "to-reducer-zero"; }
  mr::MapOutcome execute_map(const mr::InputSplit&) const override { return {}; }
  mr::ReduceOutcome execute_reduce(std::span<const mr::MapOutcome>) const override {
    mr::ReduceOutcome out;
    out.output_bytes = 1_KB;
    out.core_seconds = 0.0005;
    return out;
  }
};

mr::MapTaskResult make_result(int index, cluster::NodeId node, Bytes bytes,
                              std::int64_t records, bool in_memory) {
  mr::MapTaskResult result;
  result.profile.index = index;
  result.profile.node = node;
  result.profile.output_in_memory = in_memory;
  result.outcome.output_bytes = bytes;
  result.outcome.output_records = records;
  return result;
}

// A minimal fetch-engine drive: one simulation, a small cluster, and
// hand-fabricated map results fed straight to a ReduceRunner over a
// registry of `maps` maps.
struct DirectDrive {
  DirectDrive(const mr::JobLogic& logic, int reducers, int maps)
      : cluster(sim, cluster::ClusterConfig::uniform(8, 2, cluster::azure_a3())),
        hdfs(cluster, hdfs::HdfsConfig{}),
        spec(make_spec(logic, reducers)),
        registry(spec, maps, &stats) {
    sim.set_tracer(&tracer);
    config.shuffle_stats = &stats;
  }

  static mr::JobSpec make_spec(const mr::JobLogic& logic, int reducers) {
    mr::JobSpec spec;
    spec.name = "drive";
    spec.logic = &logic;
    spec.num_reducers = reducers;
    return spec;
  }

  // Partition every result into the registry, as a job driver does
  // when its maps finish.
  void announce(std::span<const mr::MapTaskResult> results) {
    for (const mr::MapTaskResult& result : results) {
      registry.announce(result.profile.index, result.outcome);
    }
  }

  mr::TaskEnv env() { return {sim, cluster, hdfs, config, nullptr}; }
  void drain() { sim.run_until(sim::SimTime::from_micros(600'000'000)); }
  std::string trace() const { return sim::canonical_text(tracer.events()); }

  sim::Tracer tracer;  // full mask
  sim::Simulation sim{7};
  cluster::Cluster cluster;
  hdfs::Hdfs hdfs;
  mr::MRConfig config;
  mr::ShuffleStats stats;
  mr::JobSpec spec;
  mr::MapOutputRegistry registry;
};

TEST(MapOutputRegistry, PartitionsOnceAndServesEveryPartition) {
  HashLogic logic;
  mr::JobSpec spec;
  spec.logic = &logic;
  spec.num_reducers = 4;
  mr::ShuffleStats stats;
  mr::MapOutputRegistry registry(spec, /*total_maps=*/2, &stats);

  mr::MapOutcome outcome;
  outcome.output_bytes = 4_KB;
  outcome.output_records = 64;
  registry.announce(0, outcome);
  EXPECT_TRUE(registry.announced(0));
  EXPECT_FALSE(registry.announced(1));
  EXPECT_EQ(stats.partition_calls, 1u);

  Bytes total = 0;
  for (int p = 0; p < 4; ++p) total += registry.shard(0, p).output_bytes;
  EXPECT_EQ(total, 4_KB);
  // Every shard() hit was served from the one announce-time partition.
  EXPECT_EQ(stats.partition_calls, 1u);
}

TEST(MapOutputRegistry, InvalidateAndReannounce) {
  HashLogic logic;
  mr::JobSpec spec;
  spec.logic = &logic;
  spec.num_reducers = 2;
  mr::ShuffleStats stats;
  mr::MapOutputRegistry registry(spec, /*total_maps=*/1, &stats);

  mr::MapOutcome first;
  first.output_bytes = 2_KB;
  first.output_records = 32;
  registry.announce(0, first);
  EXPECT_EQ(registry.shard(0, 0).output_bytes + registry.shard(0, 1).output_bytes, 2_KB);

  // Lost with its node: shards drop until the re-run announces.
  registry.invalidate(0);
  EXPECT_FALSE(registry.announced(0));

  // The re-announced outcome overwrites — shards reflect the new data.
  mr::MapOutcome second;
  second.output_bytes = 6_KB;
  second.output_records = 96;
  registry.announce(0, second);
  EXPECT_TRUE(registry.announced(0));
  EXPECT_EQ(stats.partition_calls, 2u);
  EXPECT_EQ(registry.shard(0, 0).output_bytes + registry.shard(0, 1).output_bytes, 6_KB);
}

// The shard-equivalence oracle under fuzzed outcomes: for random
// outcomes and reducer counts, the registry's shards must equal what a
// fresh per-fetch partition_map_output call returns — bytes, records,
// core-seconds, and the payload pointer itself.
TEST(MapOutputRegistry, FuzzedShardEquivalenceWithPerFetchPartition) {
  HashLogic logic;
  RngStream rng(1234, "test.shuffle.fuzz");
  for (int iter = 0; iter < 200; ++iter) {
    const int reducers = rng.next_int(1, 8);
    const int maps = rng.next_int(1, 6);
    mr::JobSpec spec;
    spec.logic = &logic;
    spec.num_reducers = reducers;
    mr::MapOutputRegistry registry(spec, maps, nullptr);
    for (int m = 0; m < maps; ++m) {
      mr::MapOutcome outcome;
      outcome.output_bytes = static_cast<Bytes>(rng.next_int(0, 64 * 1024));
      outcome.output_records = rng.next_int(0, 512);
      outcome.core_seconds = rng.next_double();
      outcome.data = std::make_shared<int>(m);
      registry.announce(m, outcome);
      const auto expected = logic.partition_map_output(outcome, reducers);
      ASSERT_EQ(expected.size(), static_cast<std::size_t>(reducers));
      for (int p = 0; p < reducers; ++p) {
        const mr::MapOutcome& shard = registry.shard(m, p);
        const mr::MapOutcome& want = expected[static_cast<std::size_t>(p)];
        ASSERT_EQ(shard.output_bytes, want.output_bytes) << "iter " << iter;
        ASSERT_EQ(shard.output_records, want.output_records) << "iter " << iter;
        ASSERT_DOUBLE_EQ(shard.core_seconds, want.core_seconds) << "iter " << iter;
        ASSERT_EQ(shard.data.get(), want.data.get()) << "iter " << iter;
      }
    }
  }
}

// Through a real job: the registry partitions each map exactly once,
// while every reducer still fetches every map (M·R fetches).
TEST(ShuffleCounters, PartitionCallCountsAreOncePerMapUnderFastShuffle) {
  mr::ShuffleStats stats;
  harness::WorldConfig config;
  config.mr.shuffle_stats = &stats;
  wl::WordCountParams params;
  params.num_files = 3;
  params.bytes_per_file = 256_KB;
  wl::WordCount wc(params);
  harness::World world(config, harness::RunMode::kHadoop);
  auto result = world.run(wc, [](mr::JobSpec& spec) { spec.num_reducers = 3; });
  ASSERT_TRUE(result.has_value() && result->succeeded);
  const std::size_t maps = result->profile.maps.size();
  ASSERT_GT(maps, 0u);
  EXPECT_EQ(stats.partition_calls, maps);
  EXPECT_EQ(stats.fetches, maps * 3);
}

TEST(ShuffleEdgeCases, ZeroMapJobReducesImmediately) {
  HashLogic logic;
  DirectDrive d(logic, /*reducers=*/1, /*maps=*/0);
  bool done = false;
  mr::ReduceRunner runner(d.env(), d.spec, d.registry, 0, "/out/zero-maps", 1,
                          [&done](mr::TaskProfile, mr::ReduceOutcome) { done = true; });
  runner.start();
  d.drain();
  EXPECT_TRUE(done);
  EXPECT_FALSE(d.trace().empty());
}

TEST(ShuffleEdgeCases, AllZeroByteShardsFetchLocally) {
  ToReducerZeroLogic logic;
  DirectDrive d(logic, /*reducers=*/2, /*maps=*/4);
  std::vector<mr::MapTaskResult> results;
  for (int m = 0; m < 4; ++m) {
    results.push_back(make_result(m, static_cast<cluster::NodeId>(2 + m), 8_KB, 64, false));
  }
  d.announce(results);
  bool done = false;
  // Partition 1 of an everything-to-reducer-0 job: every shard is
  // zero bytes, so no disk or network leg may start.
  mr::ReduceRunner runner(d.env(), d.spec, d.registry, 1, "/out/zero-bytes", 1,
                          [&done](mr::TaskProfile, mr::ReduceOutcome) { done = true; });
  runner.start();
  const std::uint64_t flows_before = d.cluster.network().stats().flows_started;
  runner.on_map_outputs(results);
  EXPECT_EQ(d.cluster.network().stats().flows_started, flows_before);
  d.drain();
  EXPECT_TRUE(done);
  EXPECT_EQ(runner.shuffled_bytes(), 0);
}

TEST(ShuffleEdgeCases, AllMapsOnReducerNodeInMemorySkipNetwork) {
  ToReducerZeroLogic logic;
  DirectDrive d(logic, /*reducers=*/1, /*maps=*/4);
  std::vector<mr::MapTaskResult> results;
  for (int m = 0; m < 4; ++m) {
    // Non-zero output cached in the consuming JVM's memory on the
    // reducer's own node (the U+ single-container shape).
    results.push_back(make_result(m, /*node=*/2, 8_KB, 64, /*in_memory=*/true));
  }
  d.announce(results);
  bool done = false;
  mr::ReduceRunner runner(d.env(), d.spec, d.registry, 0, "/out/in-memory", /*node=*/2,
                          [&done](mr::TaskProfile, mr::ReduceOutcome) { done = true; });
  runner.start();
  const std::uint64_t flows_before = d.cluster.network().stats().flows_started;
  runner.on_map_outputs(results);
  EXPECT_EQ(d.cluster.network().stats().flows_started, flows_before);
  d.drain();
  EXPECT_TRUE(done);
  EXPECT_EQ(runner.shuffled_bytes(), 4 * 8_KB);
}

TEST(ShuffleEdgeCases, SourceCrashMidShuffleReannounces) {
  HashLogic logic;
  DirectDrive d(logic, /*reducers=*/1, /*maps=*/4);
  std::vector<mr::MapTaskResult> results;
  for (int m = 0; m < 4; ++m) {
    results.push_back(
        make_result(m, static_cast<cluster::NodeId>(m == 0 ? 3 : 4), 8_KB, 64, false));
  }
  d.announce(results);
  bool done = false;
  mr::ReduceRunner runner(d.env(), d.spec, d.registry, 0, "/out/crash", 1,
                          [&done](mr::TaskProfile, mr::ReduceOutcome) { done = true; });
  // The re-run lands on a live node; the fetch slot the failure left
  // open must accept the re-announcement.
  mr::MapTaskResult rerun = results[0];
  rerun.profile.node = 5;
  int failed_index = -1;
  runner.set_fetch_failed([&](int map_index) {
    failed_index = map_index;
    runner.on_map_output(rerun);
  });
  runner.start();
  // Maps 1..3 shuffle normally; then map 0's source dies before its
  // output moved.
  runner.on_map_outputs(std::span<const mr::MapTaskResult>(results.data() + 1, 3));
  d.cluster.node(3).set_down(true);
  runner.on_map_output(results[0]);
  d.drain();
  EXPECT_TRUE(done);
  EXPECT_EQ(failed_index, 0);
  EXPECT_EQ(d.stats.fetches, 4u);
}

}  // namespace
}  // namespace mrapid
