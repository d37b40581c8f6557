// Ownership of finished and killed jobs (DESIGN.md §8): the
// client's AM slot map frees an attempt once it is released and no
// task callback is in flight, stale references do nothing, and
// destroying a World frees everything its jobs built.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness/world.h"
#include "sim/trace.h"
#include "workloads/wordcount.h"

namespace mrapid {
namespace {

using harness::RunMode;
using harness::World;
using harness::WorldConfig;

wl::WordCountParams params(int files, Bytes size) {
  wl::WordCountParams p;
  p.num_files = static_cast<std::size_t>(files);
  p.bytes_per_file = size;
  return p;
}

// Forwards to a real job's logic and keeps a weak_ptr to every reduce
// result and every map-output shard it hands out (the map outputs
// themselves are memoised by the workload, so they are not watched).
class WatchedLogic : public mr::JobLogic {
 public:
  explicit WatchedLogic(const mr::JobLogic& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::string signature() const override { return inner_.signature(); }
  mr::MapOutcome execute_map(const mr::InputSplit& split) const override {
    return inner_.execute_map(split);
  }
  mr::ReduceOutcome execute_reduce(std::span<const mr::MapOutcome> maps) const override {
    mr::ReduceOutcome outcome = inner_.execute_reduce(maps);
    watched_.push_back(outcome.result);
    return outcome;
  }
  std::vector<mr::MapOutcome> partition_map_output(const mr::MapOutcome& outcome,
                                                   int reducers) const override {
    std::vector<mr::MapOutcome> shards = inner_.partition_map_output(outcome, reducers);
    for (const mr::MapOutcome& shard : shards) watched_.push_back(shard.data);
    return shards;
  }
  double compute_contention() const override { return inner_.compute_contention(); }

  std::size_t watched() const { return watched_.size(); }
  std::size_t alive() const {
    std::size_t n = 0;
    for (const auto& w : watched_) n += w.expired() ? 0 : 1;
    return n;
  }

 private:
  const mr::JobLogic& inner_;
  mutable std::vector<std::weak_ptr<const void>> watched_;
};

std::size_t count_events(const sim::Tracer& tracer, std::size_t from, const std::string& name) {
  std::size_t n = 0;
  for (std::size_t i = from; i < tracer.size(); ++i) n += tracer.events()[i].name == name;
  return n;
}

TEST(Ownership, FinishedJobIsFreedOnceTheClientHasBeenTold) {
  wl::WordCount wc(params(4, 1_MB));
  WorldConfig config;
  World world(config, RunMode::kHadoop);
  world.boot();
  mr::JobSpec spec = wc.make_spec(world.hdfs());
  spec.num_reducers = 2;
  WatchedLogic logic(*spec.logic);
  spec.logic = &logic;

  bool done = false;
  std::weak_ptr<const void> result;
  const mr::AmRef am =
      world.client().submit(spec, mr::ExecutionMode::kHadoopDistributed,
                            [&](const mr::JobResult& r) {
                              done = true;
                              result = r.reduce_result;
                              // Still held while the client is being told.
                              EXPECT_NE(am.get(), nullptr);
                            });
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(300));
  ASSERT_TRUE(done);
  EXPECT_EQ(am.get(), nullptr);  // released at client:poll-complete
  EXPECT_EQ(world.client().slots().live(), 0u);
  EXPECT_TRUE(result.expired());
  EXPECT_GT(logic.watched(), 0u);
  EXPECT_EQ(logic.alive(), 0u);  // shards and results went with the AM
}

TEST(Ownership, KilledMidShuffleRunsNothingAndIsFreedOnceQuiet) {
  wl::WordCount wc(params(8, 4_MB));
  WorldConfig config;
  World world(config, RunMode::kHadoop);
  sim::Tracer tracer;
  world.attach_tracer(tracer);
  world.boot();
  mr::JobSpec spec = wc.make_spec(world.hdfs());
  spec.num_reducers = 2;
  WatchedLogic logic(*spec.logic);
  spec.logic = &logic;

  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  bool completed = false;
  const mr::AmRef am = world.client().submit(
      spec, mr::ExecutionMode::kHadoopDistributed,
      [&completed, sentinel](const mr::JobResult&) { completed = true; });
  sentinel.reset();

  // Step until the shuffle has begun but no reducer has finished it.
  sim::Simulation& sim = world.simulation();
  const sim::SimTime limit = sim.now() + sim::SimDuration::seconds(120);
  while (world.shuffle_stats().fetches == 0 && sim.now() < limit) {
    sim.run_until(sim.now() + sim::SimDuration::millis(5));
  }
  ASSERT_GT(world.shuffle_stats().fetches, 0u);
  ASSERT_EQ(count_events(tracer, 0, "reduce.shuffle_done"), 0u);

  am->kill();
  world.client().release(am);
  // Fetch legs and map compute are still in flight: the attempt is
  // parked, not freed, and its callbacks still find it.
  EXPECT_EQ(world.client().slots().parked(), 1u);
  ASSERT_NE(am.get(), nullptr);
  const std::uint64_t fetches = world.shuffle_stats().fetches;
  const std::size_t mark = tracer.size();

  sim.run_until(sim.now() + sim::SimDuration::seconds(60));
  // The in-flight fetch flows and CPU completions fired; nothing ran.
  EXPECT_FALSE(completed);
  EXPECT_EQ(world.shuffle_stats().fetches, fetches);
  for (const char* name : {"map.start", "map.done", "map.spill", "shuffle.fetch",
                           "reduce.start", "reduce.shuffle_done", "reduce.done"}) {
    EXPECT_EQ(count_events(tracer, mark, name), 0u) << name;
  }
  for (const auto& state : world.rm().nodes()) EXPECT_EQ(state.used.vcores, 0);

  // Quiet now: the next submission frees it, and every callback that
  // still names it (launches, umbilical events) goes stale.
  wl::WordCount next(params(1, 512_KB));
  bool next_done = false;
  world.client().submit(next.make_spec(world.hdfs()), mr::ExecutionMode::kHadoopDistributed,
                        [&](const mr::JobResult& r) { next_done = r.succeeded; });
  EXPECT_EQ(am.get(), nullptr);
  EXPECT_EQ(world.client().slots().parked(), 0u);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(logic.alive(), 0u);
  sim.run_until(sim.now() + sim::SimDuration::seconds(300));
  EXPECT_TRUE(next_done);
}

TEST(Ownership, StaleReferenceDoesNothing) {
  wl::WordCount wc(params(2, 512_KB));
  WorldConfig config;
  World world(config, RunMode::kHadoop);
  world.boot();
  // Killed before its AM container exists: nothing is in flight, so a
  // release frees it at once.
  const mr::AmRef am = world.client().submit(
      wc.make_spec(world.hdfs()), mr::ExecutionMode::kHadoopDistributed,
      [](const mr::JobResult&) { FAIL() << "a killed job must not report"; });
  am->kill();
  world.client().release(am);
  EXPECT_EQ(am.get(), nullptr);
  world.client().release(am);  // a stale release is ignored
  // The submission RPC event still fires against the stale reference.
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(30));
  EXPECT_EQ(world.client().slots().live(), 0u);
  for (const auto& state : world.rm().nodes()) EXPECT_EQ(state.used.vcores, 0);
}

TEST(Ownership, WorldTeardownFreesEverything) {
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  wl::WordCount wc(params(8, 4_MB));
  std::unique_ptr<WatchedLogic> logic;
  {
    WorldConfig config;
    World world(config, RunMode::kHadoop);
    world.boot();
    mr::JobSpec spec = wc.make_spec(world.hdfs());
    spec.num_reducers = 2;
    logic = std::make_unique<WatchedLogic>(*spec.logic);
    spec.logic = logic.get();
    // Stop mid-run: the AM is neither finished nor released, with
    // events, transfers and RM handlers all still pointing at it.
    world.client().submit(spec, mr::ExecutionMode::kHadoopDistributed,
                          [sentinel](const mr::JobResult&) {});
    sentinel.reset();
    sim::Simulation& sim = world.simulation();
    const sim::SimTime limit = sim.now() + sim::SimDuration::seconds(120);
    while (world.shuffle_stats().fetches < 4 && sim.now() < limit) {
      sim.run_until(sim.now() + sim::SimDuration::millis(5));
    }
    ASSERT_GE(world.shuffle_stats().fetches, 4u);
    EXPECT_FALSE(watch.expired());
    EXPECT_GT(logic->alive(), 0u);
  }
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(logic->alive(), 0u);
}

}  // namespace
}  // namespace mrapid
