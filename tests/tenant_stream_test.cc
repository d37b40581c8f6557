// The multi-tenant stream layer: TenantQueue dispatch policy units,
// fairness-convergence invariants under saturating load, and the
// cross-mode differential check — one open-loop two-tenant scenario
// through all four figure modes with trace invariants and per-tenant
// job conservation.

#include <gtest/gtest.h>

#include <functional>
#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.h"
#include "exp/workload_factory.h"
#include "harness/stream_pump.h"
#include "sim/trace.h"
#include "sim/trace_check.h"
#include "yarn/tenant_queue.h"

namespace mrapid {
namespace {

using yarn::TenantQueue;
using yarn::TenantQueueOptions;

TenantQueue::PendingJob instant_job(sim::Simulation& sim, const std::string& label) {
  TenantQueue::PendingJob job;
  job.label = label;
  job.submitted = sim.now();
  job.dispatch = [](sim::SimDuration) {};
  return job;
}

TEST(TenantQueue, ValidatesOptionsAndRegistration) {
  sim::Simulation sim(1);
  EXPECT_THROW(TenantQueue(sim, TenantQueueOptions{0}), std::invalid_argument);

  TenantQueue queue(sim, TenantQueueOptions{2});
  EXPECT_THROW(queue.register_tenant("bad", 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(queue.register_tenant("bad", 1.0, 1.5), std::invalid_argument);
  EXPECT_EQ(queue.register_tenant("ok", 1.0, 0.5), 0);
}

TEST(TenantQueue, RootCapBoundsConcurrency) {
  sim::Simulation sim(1);
  TenantQueue queue(sim, TenantQueueOptions{2});
  const int t = queue.register_tenant("only", 1.0, 0.0);
  for (int i = 0; i < 5; ++i) queue.submit(t, instant_job(sim, "j" + std::to_string(i)));
  EXPECT_EQ(queue.total_running(), 2);
  EXPECT_EQ(queue.total_backlog(), 3u);
  queue.on_job_finished(t, 1.0);
  EXPECT_EQ(queue.total_running(), 2);  // backlog refills the slot
  EXPECT_EQ(queue.total_backlog(), 2u);
}

TEST(TenantQueue, WeightedFairShareOrdersDispatch) {
  sim::Simulation sim(1);
  TenantQueue queue(sim, TenantQueueOptions{3});
  const int heavy = queue.register_tenant("heavy", 2.0, 0.0);
  const int light = queue.register_tenant("light", 1.0, 0.0);
  // Saturate the cap with heavy jobs, then queue contenders on both
  // tenants so every freed slot forces a fairness decision.
  for (int i = 0; i < 4; ++i) queue.submit(heavy, instant_job(sim, "h"));
  for (int i = 0; i < 2; ++i) queue.submit(light, instant_job(sim, "l"));
  ASSERT_EQ(queue.tenant(heavy).running, 3);
  ASSERT_EQ(queue.tenant(light).running, 0);

  // Free one slot: light (share 0/1) beats heavy (2/2) for it.
  queue.on_job_finished(heavy, 1.0);
  EXPECT_EQ(queue.tenant(light).running, 1);
  EXPECT_EQ(queue.tenant(heavy).running, 2);
  // Free another: now heavy (1/2 = 0.5) beats light (1/1).
  queue.on_job_finished(heavy, 1.0);
  EXPECT_EQ(queue.tenant(heavy).running, 2);
  EXPECT_EQ(queue.tenant(light).running, 1);
  EXPECT_EQ(queue.total_backlog(), 1u);  // one light job still queued
}

TEST(TenantQueue, CapacityFloorBeatsFairShare) {
  sim::Simulation sim(1);
  TenantQueue queue(sim, TenantQueueOptions{4});
  const int floored = queue.register_tenant("floored", 1.0, 0.3);  // entitled 1.2 slots
  const int heavy = queue.register_tenant("heavy", 10.0, 0.0);
  queue.submit(floored, instant_job(sim, "f0"));
  for (int i = 0; i < 3; ++i) queue.submit(heavy, instant_job(sim, "h"));
  ASSERT_EQ(queue.total_running(), 4);

  // Queue one contender each, then free a slot. By fair share alone
  // heavy would win it (2/10 << 1/1); the floor tier sees floored
  // below its 1.2-slot entitlement and dispatches it first.
  queue.submit(heavy, instant_job(sim, "h3"));
  queue.submit(floored, instant_job(sim, "f1"));
  queue.on_job_finished(heavy, 1.0);
  EXPECT_EQ(queue.tenant(floored).running, 2);
  EXPECT_EQ(queue.tenant(heavy).running, 2);
  EXPECT_EQ(queue.tenant(heavy).backlog.size(), 1u);
}

TEST(TenantQueue, FinishWithoutRunningThrows) {
  sim::Simulation sim(1);
  TenantQueue queue(sim, TenantQueueOptions{1});
  const int t = queue.register_tenant("only", 1.0, 0.0);
  EXPECT_THROW(queue.on_job_finished(t, 1.0), std::logic_error);
}

TEST(TenantQueue, ReentrantSubmitDuringDispatchIsSafe) {
  sim::Simulation sim(1);
  TenantQueue queue(sim, TenantQueueOptions{2});
  const int t = queue.register_tenant("only", 1.0, 0.0);
  int dispatched = 0;
  TenantQueue::PendingJob outer;
  outer.label = "outer";
  outer.submitted = sim.now();
  outer.dispatch = [&](sim::SimDuration) {
    ++dispatched;
    TenantQueue::PendingJob inner;
    inner.label = "inner";
    inner.submitted = sim.now();
    inner.dispatch = [&dispatched](sim::SimDuration) { ++dispatched; };
    queue.submit(t, std::move(inner));  // re-enters pump()
  };
  queue.submit(t, std::move(outer));
  EXPECT_EQ(dispatched, 2);
  EXPECT_EQ(queue.total_running(), 2);
}

TEST(TenantQueue, DrainedLifecycle) {
  sim::Simulation sim(1);
  TenantQueue queue(sim, TenantQueueOptions{1});
  const int t = queue.register_tenant("only", 1.0, 0.0);
  EXPECT_TRUE(queue.drained());
  queue.submit(t, instant_job(sim, "j"));
  EXPECT_FALSE(queue.drained());
  queue.on_job_finished(t, 2.5);
  EXPECT_TRUE(queue.drained());
  EXPECT_DOUBLE_EQ(queue.tenant(t).completed_work_seconds, 2.5);
}

// ---- fairness convergence (the satellite invariant) ------------------

// Closed-loop saturation harness: every tenant keeps `backlog` jobs
// queued; each dispatched job runs `service_seconds` of simulated time
// and credits that much work. Returns per-tenant completed work.
std::vector<double> run_saturated(const std::vector<double>& weights, double horizon_seconds) {
  sim::Simulation sim(7);
  TenantQueue queue(sim, TenantQueueOptions{3});
  const double service_seconds = 5.0;

  struct Feeder {
    int handle = 0;
    std::function<void()> submit_one;
  };
  std::vector<Feeder> feeders(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    feeders[i].handle =
        queue.register_tenant("t" + std::to_string(i), weights[i], 0.0);
    feeders[i].submit_one = [&sim, &queue, &feeders, i, service_seconds] {
      TenantQueue::PendingJob job;
      job.label = "t" + std::to_string(i);
      job.submitted = sim.now();
      job.dispatch = [&sim, &queue, &feeders, i, service_seconds](sim::SimDuration) {
        sim.schedule_after(sim::SimDuration::seconds(service_seconds),
                           [&queue, &feeders, i, service_seconds] {
                             queue.on_job_finished(feeders[i].handle, service_seconds);
                             feeders[i].submit_one();  // keep the tenant saturated
                           },
                           "test:job-done");
      };
      queue.submit(feeders[i].handle, std::move(job));
    };
  }
  // Four jobs in flight per tenant: more than the cap, so every
  // tenant always has backlog and each freed slot forces a real
  // fairness decision between tenants.
  for (Feeder& feeder : feeders) {
    for (int j = 0; j < 4; ++j) feeder.submit_one();
  }
  sim.run_until(sim.now() + sim::SimDuration::seconds(horizon_seconds));

  std::vector<double> work;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    work.push_back(queue.tenant(static_cast<int>(i)).completed_work_seconds);
  }
  return work;
}

TEST(TenantFairness, EqualWeightsConvergeToEqualShares) {
  const std::vector<double> work = run_saturated({1.0, 1.0, 1.0}, 2000.0);
  const double total = work[0] + work[1] + work[2];
  ASSERT_GT(total, 0.0);
  for (const double w : work) {
    EXPECT_NEAR(w / total, 1.0 / 3.0, 0.05);
  }
}

TEST(TenantFairness, TwoToOneWeightsOrderShares) {
  const std::vector<double> work = run_saturated({2.0, 1.0}, 2000.0);
  ASSERT_GT(work[1], 0.0);
  const double ratio = work[0] / work[1];
  // Cap 3 with weights 2:1 steadies at 2 vs 1 running jobs.
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

// ---- cross-mode differential stream ----------------------------------

std::vector<wl::TenantSpec> diff_tenants() {
  wl::TenantSpec alpha;
  alpha.name = "alpha";
  alpha.arrival.process = wl::ArrivalProcess::kPoisson;
  alpha.arrival.mean_interarrival_seconds = 10.0;
  alpha.scan_weight = 1.0;
  alpha.sort_weight = 0.0;
  alpha.numeric_weight = 0.0;
  alpha.min_files = 1;
  alpha.max_files = 1;
  alpha.min_file_bytes = 1_MB;
  alpha.max_file_bytes = 1_MB;
  alpha.weight = 2.0;
  alpha.capacity_floor = 0.34;

  wl::TenantSpec beta = alpha;
  beta.name = "beta";
  beta.arrival.process = wl::ArrivalProcess::kBursty;
  beta.arrival.mean_interarrival_seconds = 12.0;
  beta.arrival.mean_on_seconds = 15.0;
  beta.arrival.mean_off_seconds = 20.0;
  beta.weight = 1.0;
  beta.capacity_floor = 0.0;
  return {alpha, beta};
}

TEST(TenantStreamDiff, AllModesConserveJobsAndPassTraceInvariants) {
  // Per-mode submitted label sequences; arrivals are drawn from the
  // world seed alone, so every mode must see the identical stream.
  std::map<std::string, std::vector<std::string>> submitted_by_mode;

  for (const harness::RunMode mode : exp::figure_modes()) {
    const char* name = harness::run_mode_name(mode);
    harness::WorldConfig config;
    harness::World world(config, mode);
    sim::Tracer tracer;
    world.attach_tracer(tracer);

    harness::StreamPumpOptions options;
    options.horizon_seconds = 60.0;
    harness::StreamPump pump(world, diff_tenants(), options);
    EXPECT_TRUE(pump.run()) << name << ": stream did not drain";

    // Conservation: every submitted job reached exactly one terminal
    // state, successfully.
    ASSERT_GE(pump.submitted_jobs(), 2u) << name;
    for (const harness::StreamJobRecord& record : pump.records()) {
      EXPECT_TRUE(record.completed) << name << " lost " << record.label;
      EXPECT_TRUE(record.succeeded) << name << " failed " << record.label;
      EXPECT_GE(record.dispatched_s, record.submitted_s) << record.label;
      EXPECT_GE(record.completed_s, record.dispatched_s) << record.label;
      submitted_by_mode[name].push_back(record.label);
    }
    // Queue bookkeeping conserves too.
    for (std::size_t i = 0; i < pump.queue().tenant_count(); ++i) {
      const auto& tenant = pump.queue().tenant(static_cast<int>(i));
      EXPECT_EQ(tenant.finished, tenant.submitted) << name << " tenant " << tenant.name;
    }
    // Structure: full trace invariants hold for the whole stream run.
    const std::vector<std::string> violations = sim::check_trace(tracer.events());
    EXPECT_TRUE(violations.empty())
        << name << ": " << (violations.empty() ? "" : violations.front());
  }

  // Differential: all four modes saw the same submitted job sequence.
  const auto& reference = submitted_by_mode.begin()->second;
  for (const auto& [mode, labels] : submitted_by_mode) {
    EXPECT_EQ(labels, reference) << mode << " diverged from "
                                 << submitted_by_mode.begin()->first;
  }
}

// ---- bounded memory over a long stream -----------------------------

// Thousands of tiny jobs through one long-lived world: what a finished
// job leaves behind must not grow with the stream. The client's slot
// map never holds more AMs than can be running plus the pool's worth
// of attempts waiting to go quiet, and each job's reduce result is
// gone once its completion callback has returned.
TEST(TenantStreamMemory, LongStreamKeepsFinishedJobsFreed) {
  wl::TenantSpec tiny;
  tiny.name = "tiny";
  tiny.arrival.process = wl::ArrivalProcess::kPoisson;
  tiny.arrival.mean_interarrival_seconds = 4.0;
  tiny.scan_weight = 1.0;
  tiny.sort_weight = 0.0;
  tiny.numeric_weight = 0.0;
  tiny.min_files = 1;
  tiny.max_files = 1;
  tiny.min_file_bytes = 64_KB;
  tiny.max_file_bytes = 64_KB;

  for (const harness::RunMode mode : {harness::RunMode::kHadoop, harness::RunMode::kDPlus}) {
    const char* name = harness::run_mode_name(mode);
    harness::WorldConfig config;
    config.log_level = LogLevel::kError;
    harness::World world(config, mode);

    std::vector<std::weak_ptr<const void>> results;
    std::size_t checked = 0;
    std::size_t lingering = 0;
    std::size_t max_live = 0;
    harness::StreamPumpOptions options;
    options.horizon_seconds = 8400.0;
    options.on_job_complete = [&](const harness::StreamJobRecord&, wl::Workload&,
                                  const mr::JobResult& result) {
      // Every earlier job's completion callback has returned.
      for (; checked < results.size(); ++checked) lingering += !results[checked].expired();
      ASSERT_NE(result.reduce_result, nullptr);
      results.push_back(result.reduce_result);
      max_live = std::max(max_live, world.client().slots().live());
    };
    harness::StreamPump pump(world, {tiny}, options);
    ASSERT_TRUE(pump.run()) << name;

    EXPECT_GE(pump.submitted_jobs(), 2000u) << name;
    EXPECT_EQ(results.size(), pump.submitted_jobs()) << name;
    EXPECT_EQ(lingering, 0u) << name;
    for (const auto& result : results) EXPECT_TRUE(result.expired()) << name;
    const std::size_t cap = static_cast<std::size_t>(pump.slot_count());
    const std::size_t pool = static_cast<std::size_t>(config.framework.pool_size);
    EXPECT_LE(max_live, cap + pool) << name;
    EXPECT_LE(world.client().slots().live(), pool) << name;
  }
}

}  // namespace
}  // namespace mrapid
