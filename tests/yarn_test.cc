// Tests for the YARN substrate: records, the baseline
// CapacityScheduler's heartbeat-driven greedy behaviour, the RM's
// application lifecycle, and release-visibility lag.

#include <gtest/gtest.h>

#include <map>

#include "cluster/azure.h"
#include "cluster/cluster.h"
#include "sim/trace.h"
#include "yarn/capacity_scheduler.h"
#include "yarn/resource_manager.h"

namespace mrapid::yarn {
namespace {

TEST(Records, ResourceArithmetic) {
  const Resource a{2, 2048};
  const Resource b{1, 1024};
  EXPECT_EQ(a + b, (Resource{3, 3072}));
  EXPECT_EQ(a - b, (Resource{1, 1024}));
  EXPECT_TRUE(b.fits_in(a));
  EXPECT_FALSE(a.fits_in(b));
  EXPECT_TRUE(Resource{}.is_zero());
  EXPECT_FALSE(a.is_zero());
}

TEST(Records, FitsInChecksEveryDimension) {
  EXPECT_FALSE((Resource{5, 10}).fits_in(Resource{4, 100}));
  EXPECT_FALSE((Resource{1, 2000}).fits_in(Resource{4, 100}));
  EXPECT_TRUE((Resource{4, 100}).fits_in(Resource{4, 100}));
}

TEST(Records, ToStringMentionsBothDimensions) {
  const std::string s = Resource{2, 1024}.to_string();
  EXPECT_NE(s.find("2"), std::string::npos);
  EXPECT_NE(s.find("1024"), std::string::npos);
}

class YarnFixture : public ::testing::Test {
 protected:
  YarnFixture() : cluster_(sim_, cluster::a3_paper_cluster()) {
    rm_ = std::make_unique<ResourceManager>(
        cluster_, std::make_unique<HadoopCapacityScheduler>(), YarnConfig{});
    rm_->start();
  }

  Ask make_ask(AppId app, Resource capability = {1, 1024}) {
    Ask ask;
    ask.id = rm_->new_ask_id();
    ask.app = app;
    ask.capability = capability;
    return ask;
  }

  sim::Simulation sim_;
  cluster::Cluster cluster_;
  std::unique_ptr<ResourceManager> rm_;
};

TEST_F(YarnFixture, NodeManagersAdvertiseCapacity) {
  const Resource capacity = rm_->node_manager(1).capacity();
  EXPECT_EQ(capacity.vcores, 4);           // A3: 4 cores x 1 container/core
  EXPECT_EQ(capacity.memory_mb, 6144);     // 7168 - 1024 reserve
}

TEST_F(YarnFixture, ContainersPerCoreScalesVcores) {
  YarnConfig config;
  config.containers_per_core = 2;
  ResourceManager rm(cluster_, std::make_unique<HadoopCapacityScheduler>(), config);
  rm.start();
  EXPECT_EQ(rm.node_manager(1).capacity().vcores, 8);
}

TEST_F(YarnFixture, SubmitLaunchesAmAfterAllocationAndLaunchCost) {
  double am_ready = -1;
  rm_->submit_application("app", [&](const Container& container) {
    am_ready = sim_.now().as_seconds();
    EXPECT_NE(container.node, cluster_.master());
    EXPECT_GT(container.id, 0);
  });
  sim_.run_until(sim::SimTime::from_seconds(30));
  // rpc (1 ms) + first NM heartbeat (<= 1 s) + rpc + launch 1.5 s +
  // am_init 1.5 s: between 3 s and ~4.1 s.
  EXPECT_GT(am_ready, 2.9);
  EXPECT_LT(am_ready, 4.2);
}

TEST_F(YarnFixture, BaselineAnswersOnLaterHeartbeatNotImmediately) {
  AppId app = rm_->submit_application("app", [](const Container&) {});
  sim_.run_until(sim::SimTime::from_seconds(10));  // AM is up

  auto immediate = rm_->am_allocate(app, {make_ask(app)});
  EXPECT_TRUE(immediate.empty());  // baseline never answers in the same call

  sim_.run_until(sim_.now() + sim::SimDuration::seconds(2));
  auto later = rm_->am_allocate(app, {});
  EXPECT_EQ(later.size(), 1u);
}

TEST_F(YarnFixture, GreedyPackingPutsManyTasksOnOneNode) {
  AppId app = rm_->submit_application("app", [](const Container&) {});
  sim_.run_until(sim::SimTime::from_seconds(10));

  // Ask for 4 one-vcore containers; the next NM to heartbeat takes as
  // many as fit (4 vcores per A3 node minus anything already there).
  std::vector<Ask> asks;
  for (int i = 0; i < 4; ++i) asks.push_back(make_ask(app));
  rm_->am_allocate(app, std::move(asks));
  sim_.run_until(sim_.now() + sim::SimDuration::seconds(2));
  auto allocations = rm_->am_allocate(app, {});
  ASSERT_EQ(allocations.size(), 4u);

  std::map<cluster::NodeId, int> per_node;
  for (const auto& a : allocations) ++per_node[a.container.node];
  int peak = 0;
  for (auto& [node, count] : per_node) peak = std::max(peak, count);
  // Greedy: at least 3 land on one node (4 if the AM sits elsewhere).
  EXPECT_GE(peak, 3);
}

TEST_F(YarnFixture, ReleasedResourcesVisibleOnlyAfterNodeHeartbeat) {
  AppId app = rm_->submit_application("app", [](const Container&) {});
  sim_.run_until(sim::SimTime::from_seconds(10));

  // Fill the whole cluster (16 vcores minus the AM's 1).
  std::vector<Ask> asks;
  for (int i = 0; i < 15; ++i) asks.push_back(make_ask(app));
  rm_->am_allocate(app, std::move(asks));
  sim_.run_until(sim_.now() + sim::SimDuration::seconds(2));
  auto allocations = rm_->am_allocate(app, {});
  ASSERT_EQ(allocations.size(), 15u);

  // One more ask cannot be served...
  rm_->am_allocate(app, {make_ask(app)});
  sim_.run_until(sim_.now() + sim::SimDuration::seconds(2));
  EXPECT_TRUE(rm_->am_allocate(app, {}).empty());

  // ...until a container is released AND its NM heartbeats.
  rm_->release_container(allocations[0].container);
  sim_.run_until(sim_.now() + sim::SimDuration::seconds(2.1));
  auto after = rm_->am_allocate(app, {});
  EXPECT_EQ(after.size(), 1u);
}

TEST_F(YarnFixture, FinishApplicationCancelsQueuedAsks) {
  AppId app = rm_->submit_application("app", [](const Container&) {});
  sim_.run_until(sim::SimTime::from_seconds(10));
  std::vector<Ask> asks;
  for (int i = 0; i < 50; ++i) asks.push_back(make_ask(app));  // far beyond capacity
  rm_->am_allocate(app, std::move(asks));
  rm_->finish_application(app);
  EXPECT_EQ(rm_->scheduler().queued_asks(), 0u);
  EXPECT_TRUE(rm_->app_finished(app));
  sim_.run_until(sim_.now() + sim::SimDuration::seconds(3));  // no crash, no leak
}

TEST_F(YarnFixture, AllocationAfterFinishIsReturned) {
  AppId app = rm_->submit_application("app", [](const Container&) {});
  sim_.run_until(sim::SimTime::from_seconds(10));
  rm_->am_allocate(app, {make_ask(app)});
  rm_->finish_application(app);
  sim_.run_until(sim_.now() + sim::SimDuration::seconds(3));
  // The late allocation was handed back; cluster eventually all free.
  sim_.run_until(sim_.now() + sim::SimDuration::seconds(3));
  std::int64_t used = 0;
  for (auto& state : rm_->nodes()) used += state.used.vcores;
  EXPECT_EQ(used, 0);
}

TEST_F(YarnFixture, NmLaunchChargesLaunchCost) {
  AppId app = rm_->submit_application("app", [](const Container&) {});
  sim_.run_until(sim::SimTime::from_seconds(10));
  rm_->am_allocate(app, {make_ask(app)});
  sim_.run_until(sim_.now() + sim::SimDuration::seconds(2));
  auto allocations = rm_->am_allocate(app, {});
  ASSERT_EQ(allocations.size(), 1u);

  const double t0 = sim_.now().as_seconds();
  double running_at = -1;
  rm_->node_manager(allocations[0].container.node)
      .launch_container(allocations[0].container,
                        [&] { running_at = sim_.now().as_seconds(); });
  sim_.run_until(sim_.now() + sim::SimDuration::seconds(5));
  EXPECT_NEAR(running_at - t0, 1.501, 1e-3);  // rpc 1 ms + 1.5 s launch
}

TEST_F(YarnFixture, LaunchCountersTrackPerNode) {
  AppId app = rm_->submit_application("app", [](const Container&) {});
  sim_.run_until(sim::SimTime::from_seconds(10));
  rm_->am_allocate(app, {make_ask(app), make_ask(app)});
  sim_.run_until(sim_.now() + sim::SimDuration::seconds(2));
  auto allocations = rm_->am_allocate(app, {});
  std::size_t launched_before = 0;
  for (cluster::NodeId worker : cluster_.workers()) {
    launched_before += rm_->node_manager(worker).launched_total();
  }
  for (const auto& a : allocations) {
    rm_->node_manager(a.container.node).launch_container(a.container, [] {});
  }
  std::size_t launched_after = 0;
  for (cluster::NodeId worker : cluster_.workers()) {
    launched_after += rm_->node_manager(worker).launched_total();
  }
  EXPECT_EQ(launched_after - launched_before, allocations.size());
}

TEST_F(YarnFixture, HeartbeatsAreStaggeredAcrossWorkers) {
  // Count NODE_STATUS_UPDATE arrival times via scheduler allocations:
  // instead, observe that the AM submit (needing one heartbeat) is
  // served within one period even though node 1's own beat may be
  // later — i.e. some NM beats early in the period.
  double am_ready = -1;
  rm_->submit_application("x", [&](const Container&) { am_ready = sim_.now().as_seconds(); });
  sim_.run_until(sim::SimTime::from_seconds(10));
  EXPECT_LT(am_ready, 4.2);
}

TEST_F(YarnFixture, MembershipFlipReachesSchedulerAtNextBeat) {
  // An idle cluster: every node is parked and no ask waits, so beats
  // are counted, not dispatched. A membership flip must still reach
  // the scheduler at the very next beat of any node, as it would if
  // every beat were dispatched: here node 2's, 250 ms after node 1's.
  sim_.run_until(sim::SimTime::from_seconds(5.0));  // node 1 just beat
  const WaitingTimeEstimator* estimator = rm_->scheduler().wait_estimator();
  ASSERT_NE(estimator, nullptr);
  const int vcores = rm_->node_manager(1).capacity().vcores;
  EXPECT_EQ(estimator->servers(), 4 * vcores);
  const std::uint64_t dispatched = sim_.wheel_stats().fired;
  rm_->expire_node(1);
  sim_.run_until(sim::SimTime::from_seconds(5.3));
  EXPECT_EQ(estimator->servers(), 3 * vcores);
  EXPECT_EQ(sim_.wheel_stats().fired, dispatched + 1);  // node 2's beat
  EXPECT_GT(sim_.wheel_stats().elided, 0u);
}

TEST_F(YarnFixture, TracerAttachedMidRunSeesEveryBeat) {
  // Beats of an idle cluster are elided until a tracer that records
  // heartbeats attaches; from then on every beat is dispatched and
  // traced, and after it detaches the lane sleeps again.
  sim_.run_until(sim::SimTime::from_seconds(5.1));
  EXPECT_EQ(sim_.wheel_stats().fired, 1u);  // the first beat refreshes membership
  sim::Tracer tracer;
  sim_.set_tracer(&tracer);
  sim_.run_until(sim::SimTime::from_seconds(7.1));
  std::size_t beats = 0;
  for (const sim::TraceEvent& event : tracer.events()) beats += event.name == "nm.heartbeat";
  EXPECT_EQ(beats, 8u);  // 4 workers x 2 periods
  sim_.set_tracer(nullptr);
  const std::uint64_t elided = sim_.wheel_stats().elided;
  sim_.run_until(sim::SimTime::from_seconds(9.1));
  EXPECT_EQ(sim_.wheel_stats().elided, elided + 7);  // one beat wakes to learn the detach
  // Every beat in [0, 9.1] s counted: node 1 beats at whole seconds,
  // the others 250, 500 and 750 ms later.
  EXPECT_EQ(sim_.processed_events(), 10u + 3 * 9);
}

}  // namespace
}  // namespace mrapid::yarn
