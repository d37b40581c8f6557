// Scheduler-zoo unit and property tests, driven against a fake
// SchedulerContext so the policies are exercised in isolation from the
// ResourceManager:
//
//   * judge_locality edge cases — no preferred replicas, all preferred
//     replicas dead, blacklisted-but-alive replicas — degrade
//     deterministically (docs/SCHEDULERS.md, satellite b).
//   * EASY backfilling never delays the head-of-queue reservation, and
//     conservative backfilling never delays any earlier reservation,
//     over fuzzed ask streams whose runtime hints are exact — the two
//     no-delay guarantees the shadow schedules exist for (satellite c).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"
#include "sim/simulation.h"
#include "yarn/node_table.h"
#include "yarn/policies.h"
#include "yarn/scheduling_algorithm.h"

namespace mrapid {
namespace {

using cluster::Locality;

// A minimal RM stand-in: owns the clock, the rack topology and the
// NodeTable, and captures delivered allocations. Freed resources are
// un-charged by the test directly (the real RM's NM-heartbeat lag is
// irrelevant to the policy invariants under test), through the table's
// mutation funnel like every other node change.
class FakeContext : public yarn::SchedulerContext {
 public:
  FakeContext(std::vector<std::vector<cluster::NodeId>> racks, yarn::Resource per_node)
      : topology_(racks) {
    std::vector<cluster::NodeId> ids;
    for (const auto& rack : racks) ids.insert(ids.end(), rack.begin(), rack.end());
    std::sort(ids.begin(), ids.end());  // the table wants ascending ids
    for (cluster::NodeId id : ids) {
      yarn::NodeState state;
      state.id = id;
      state.capacity = per_node;
      table_.add_node(state);
    }
  }

  yarn::NodeState* node_state(cluster::NodeId id) override { return table_.find(id); }
  yarn::NodeTable* node_table() override { return &table_; }
  const cluster::Topology& topology() const override { return topology_; }
  yarn::ContainerId next_container_id() override { return next_id_++; }
  void deliver_allocation(const yarn::Allocation& allocation) override {
    delivered_.push_back(allocation);
  }
  sim::Simulation& simulation() override { return sim_; }

  // Drains delivered allocations accumulated since the last call.
  std::vector<yarn::Allocation> take_delivered() { return std::exchange(delivered_, {}); }

  void advance_to(double t_s) {
    sim_.schedule_at(sim::SimTime::from_seconds(t_s), [] {});
    sim_.run();
  }

  void set_alive(cluster::NodeId id, bool alive) { table_.set_alive(*table_.find(id), alive); }
  void set_blacklisted(cluster::NodeId id, bool blacklisted) {
    table_.set_blacklisted(*table_.find(id), blacklisted);
  }

 private:
  sim::Simulation sim_;
  cluster::Topology topology_;
  yarn::NodeTable table_;
  yarn::ContainerId next_id_ = 1;
  std::vector<yarn::Allocation> delivered_;
};

yarn::Ask make_ask(yarn::AskId id, yarn::AppId app, int vcores,
                   std::vector<cluster::NodeId> preferred = {}) {
  yarn::Ask ask;
  ask.id = id;
  ask.app = app;
  ask.capability = {vcores, vcores * 1024};
  ask.preferred_nodes = std::move(preferred);
  return ask;
}

// ---- judge_locality edge cases ------------------------------------

// Two racks of two nodes; locality_of() is the public window onto the
// protected judge_locality().
struct LocalityRig {
  FakeContext ctx{{{0, 1}, {2, 3}}, {4, 4096}};
  yarn::PolicyScheduler sched{std::make_unique<yarn::FcfsAlgorithm>()};
  LocalityRig() { sched.bind(&ctx); }
};

TEST(JudgeLocality, EmptyPreferredListIsAnyEverywhere) {
  LocalityRig rig;
  const yarn::Ask ask = make_ask(1, 1, 1);
  EXPECT_EQ(rig.sched.locality_of(ask, 0), Locality::kAny);
  EXPECT_EQ(rig.sched.locality_of(ask, 3), Locality::kAny);
}

TEST(JudgeLocality, HealthyReplicaGivesNodeRackAnyLadder) {
  LocalityRig rig;
  const yarn::Ask ask = make_ask(1, 1, 1, {0});
  EXPECT_EQ(rig.sched.locality_of(ask, 0), Locality::kNodeLocal);
  EXPECT_EQ(rig.sched.locality_of(ask, 1), Locality::kRackLocal);
  EXPECT_EQ(rig.sched.locality_of(ask, 2), Locality::kAny);
}

TEST(JudgeLocality, AllPreferredReplicasDeadDegradesToAny) {
  LocalityRig rig;
  rig.ctx.set_alive(0, false);
  rig.ctx.set_alive(1, false);
  const yarn::Ask ask = make_ask(1, 1, 1, {0, 1});
  // Even on a replica's own (expired) node or its rack mate, a dead
  // replica offers no local read: deterministic kAny, twice.
  for (int repeat = 0; repeat < 2; ++repeat) {
    EXPECT_EQ(rig.sched.locality_of(ask, 0), Locality::kAny);
    EXPECT_EQ(rig.sched.locality_of(ask, 1), Locality::kAny);
    EXPECT_EQ(rig.sched.locality_of(ask, 2), Locality::kAny);
  }
}

TEST(JudgeLocality, BlacklistedAliveReplicaDegradesNodeLocalToRackLocal) {
  LocalityRig rig;
  rig.ctx.set_blacklisted(0, true);  // still alive: HDFS serves
  const yarn::Ask ask = make_ask(1, 1, 1, {0});
  EXPECT_EQ(rig.sched.locality_of(ask, 0), Locality::kRackLocal);
  EXPECT_EQ(rig.sched.locality_of(ask, 1), Locality::kRackLocal);
  EXPECT_EQ(rig.sched.locality_of(ask, 2), Locality::kAny);
}

TEST(JudgeLocality, DeadReplicaSkippedMinTakenOverSurvivors) {
  LocalityRig rig;
  rig.ctx.set_alive(0, false);
  const yarn::Ask ask = make_ask(1, 1, 1, {0, 2});
  EXPECT_EQ(rig.sched.locality_of(ask, 2), Locality::kNodeLocal);
  EXPECT_EQ(rig.sched.locality_of(ask, 3), Locality::kRackLocal);
  EXPECT_EQ(rig.sched.locality_of(ask, 0), Locality::kAny);
}

// ---- backfilling: deterministic scenarios -------------------------

// A rig that also plays the RM's completion side: tracks delivered
// containers with their (exact) hinted runtimes and retires the ones
// whose estimated end has passed.
struct BackfillRig {
  FakeContext ctx;
  yarn::PolicyScheduler sched;
  std::map<yarn::AppId, double> runtime_s;
  struct Live {
    yarn::Container container;
    double end_s = 0.0;
  };
  std::vector<Live> live;

  BackfillRig(std::unique_ptr<yarn::ISchedulingAlgorithm> algorithm,
              std::vector<std::vector<cluster::NodeId>> racks, yarn::Resource per_node)
      : ctx(std::move(racks), per_node), sched(std::move(algorithm)) {
    sched.bind(&ctx);
  }

  // Submits one ask whose runtime hint is set first, so the queue
  // entry's estimate is exact.
  void submit(yarn::AskId id, yarn::AppId app, int vcores, double runtime) {
    runtime_s[app] = runtime;
    sched.set_app_runtime_hint(app, runtime);
    sched.on_container_request({make_ask(id, app, vcores)});
  }

  void absorb_delivered() {
    for (const yarn::Allocation& allocation : ctx.take_delivered()) {
      live.push_back(Live{allocation.container,
                          ctx.simulation().now().as_seconds() +
                              runtime_s.at(allocation.container.app)});
    }
  }

  // Retires every container due by now: un-charges the node and feeds
  // the scheduler its service sample, exactly as the RM would.
  void finish_due() {
    const double now_s = ctx.simulation().now().as_seconds();
    for (auto it = live.begin(); it != live.end();) {
      if (it->end_s <= now_s + 1e-9) {
        yarn::NodeState* node = ctx.node_state(it->container.node);
        ASSERT_NE(node, nullptr);
        ctx.node_table()->uncharge(*node, it->container.resource);
        sched.on_container_finished(it->container);
        it = live.erase(it);
      } else {
        ++it;
      }
    }
  }
};

TEST(EasyBackfill, BackfillsOnlyJobsThatCannotDelayTheHeadReservation) {
  // One 4-vcore node. A 2-vcore container runs until t=10; the 4-vcore
  // head must wait for the whole node, so its reservation starts at 10.
  BackfillRig rig(std::make_unique<yarn::EasyBackfillAlgorithm>(), {{0}}, {4, 4096});
  rig.submit(1, 1, 2, 10.0);
  rig.sched.on_node_update(0);
  rig.absorb_delivered();
  ASSERT_EQ(rig.live.size(), 1u);

  rig.submit(2, 2, 4, 5.0);  // head: needs the whole node
  rig.sched.on_node_update(0);
  const yarn::Reservation head = yarn::easy_head_reservation(rig.sched);
  ASSERT_TRUE(head.valid);
  EXPECT_NEAR(head.start_s, 10.0, 1e-6);
  EXPECT_EQ(head.node, 0);

  // A short filler (ends at 5 <= 10) may jump the queue; a long one
  // (ends at 20 > 10) would push the head past its reservation and
  // must stay queued behind it.
  rig.submit(3, 3, 2, 5.0);
  rig.submit(4, 4, 2, 20.0);
  rig.sched.on_node_update(0);
  rig.absorb_delivered();
  ASSERT_EQ(rig.live.size(), 2u);
  EXPECT_EQ(rig.live.back().container.app, 3);
  EXPECT_EQ(rig.sched.counters().backfilled, 1u);
  ASSERT_EQ(rig.sched.queue().size(), 2u);
  EXPECT_EQ(rig.sched.queue().front().ask.id, 2u);

  // Once the runners retire the head goes first, then the long filler.
  rig.ctx.advance_to(10.0);
  rig.finish_due();
  rig.sched.on_node_update(0);
  rig.absorb_delivered();
  ASSERT_FALSE(rig.live.empty());
  EXPECT_EQ(rig.live.back().container.app, 2);
}

TEST(ConservativeBackfill, ReservationsAreCarvedInFifoOrder) {
  // One 2-vcore node busy until t=10. FIFO: X (2v, 5s) reserves
  // [10,15); Y (1v, 3s) must plan around X's carve and lands at 15.
  BackfillRig rig(std::make_unique<yarn::ConservativeBackfillAlgorithm>(), {{0}}, {2, 2048});
  rig.submit(1, 1, 2, 10.0);
  rig.sched.on_node_update(0);
  rig.absorb_delivered();
  ASSERT_EQ(rig.live.size(), 1u);

  rig.submit(2, 2, 2, 5.0);
  rig.submit(3, 3, 1, 3.0);
  const std::vector<yarn::Reservation> plan = yarn::conservative_reservations(rig.sched);
  ASSERT_EQ(plan.size(), 2u);
  ASSERT_TRUE(plan[0].valid);
  ASSERT_TRUE(plan[1].valid);
  EXPECT_NEAR(plan[0].start_s, 10.0, 1e-6);
  EXPECT_NEAR(plan[1].start_s, 15.0, 1e-6);
}

// ---- backfilling: fuzzed no-delay properties ----------------------

constexpr int kPropertySeeds = 12;
constexpr int kPropertySteps = 40;

// Drives one fuzzed ask stream against `rig`, invoking `check` around
// every scheduling pass. Runtime hints are exact, so the shadow
// schedules' estimates match reality and the guarantees are crisp.
template <typename Check>
void run_fuzzed_stream(BackfillRig& rig, RngStream& rng, Check&& check) {
  yarn::AskId next_ask = 1;
  yarn::AppId next_app = 1;
  for (int step = 0; step < kPropertySteps; ++step) {
    rig.finish_due();
    if (rng.next_double() < 0.6) {
      const int batch = static_cast<int>(rng.next_int(1, 3));
      for (int i = 0; i < batch; ++i) {
        rig.submit(next_ask++, next_app++, static_cast<int>(rng.next_int(1, 4)),
                   static_cast<double>(rng.next_int(2, 20)));
      }
    }
    check(rig);
    rig.absorb_delivered();
    rig.ctx.advance_to(static_cast<double>(step + 1));
  }
}

TEST(EasyBackfill, PropertyHeadReservationNeverDelayedByBackfill) {
  for (int seed = 1; seed <= kPropertySeeds; ++seed) {
    BackfillRig rig(std::make_unique<yarn::EasyBackfillAlgorithm>(), {{0, 1}, {2, 3}},
                    {4, 4096});
    RngStream rng(static_cast<std::uint64_t>(seed), "test.easy.property");
    run_fuzzed_stream(rig, rng, [](BackfillRig& r) {
      const bool had_head = !r.sched.queue().empty();
      const yarn::AskId head_id = had_head ? r.sched.queue().front().ask.id : 0;
      const yarn::Reservation before = yarn::easy_head_reservation(r.sched);
      r.sched.on_node_update(0);
      // If the pass did not serve the head itself, every backfill it
      // admitted must have left the head's earliest start untouched or
      // earlier — never later.
      if (had_head && !r.sched.queue().empty() &&
          r.sched.queue().front().ask.id == head_id) {
        const yarn::Reservation after = yarn::easy_head_reservation(r.sched);
        ASSERT_TRUE(before.valid);
        ASSERT_TRUE(after.valid);
        EXPECT_LE(after.start_s, before.start_s + 1e-6)
            << "head ask " << head_id << " delayed by a backfill";
      }
    });
  }
}

TEST(ConservativeBackfill, PropertyNoEarlierReservationEverDelayed) {
  for (int seed = 1; seed <= kPropertySeeds; ++seed) {
    BackfillRig rig(std::make_unique<yarn::ConservativeBackfillAlgorithm>(), {{0, 1}, {2, 3}},
                    {4, 4096});
    RngStream rng(static_cast<std::uint64_t>(seed), "test.conservative.property");
    yarn::AskId extra_ask = 1000000;
    yarn::AppId extra_app = 1000000;
    run_fuzzed_stream(rig, rng, [&](BackfillRig& r) {
      // (1) Appending later asks must leave every existing
      // reservation exactly where it was: kAsksAdded is a no-op for
      // the policy, and the FIFO carve plans later asks around —
      // never through — earlier ones.
      auto plan_by_ask = [](BackfillRig& rr) {
        std::map<yarn::AskId, yarn::Reservation> out;
        const std::vector<yarn::Reservation> plan =
            yarn::conservative_reservations(rr.sched);
        for (std::size_t i = 0; i < plan.size(); ++i) {
          out[rr.sched.queue()[i].ask.id] = plan[i];
        }
        return out;
      };
      const auto before_append = plan_by_ask(r);
      r.submit(extra_ask++, extra_app++, static_cast<int>(rng.next_int(1, 4)),
               static_cast<double>(rng.next_int(2, 20)));
      const auto after_append = plan_by_ask(r);
      for (const auto& [id, res] : before_append) {
        const auto it = after_append.find(id);
        ASSERT_NE(it, after_append.end());
        ASSERT_EQ(res.valid, it->second.valid);
        if (res.valid) {
          EXPECT_NEAR(it->second.start_s, res.start_s, 1e-6)
              << "appended ask moved earlier reservation of ask " << id;
          EXPECT_EQ(it->second.node, res.node);
        }
      }

      // (2) A scheduling pass may serve asks, freeing earlier slots;
      // whatever stays queued must keep its start or move earlier.
      r.sched.on_node_update(0);
      const auto after_pass = plan_by_ask(r);
      for (const auto& [id, res] : after_pass) {
        const auto it = after_append.find(id);
        if (it == after_append.end() || !it->second.valid || !res.valid) continue;
        EXPECT_LE(res.start_s, it->second.start_s + 1e-6)
            << "scheduling pass delayed reservation of ask " << id;
      }
    });
  }
}

}  // namespace
}  // namespace mrapid
