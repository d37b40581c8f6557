#pragma once

// Outside-in probes for the benchmark's traced run. Nothing here
// reaches into the simulator: each probe is a forwarding decorator on
// a public seam (wl::Workload, yarn::Scheduler) that counts and times
// the calls crossing it, so the untraced run executes exactly the
// shipped code and the traced run differs only by the clock reads.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "workloads/workload.h"
#include "yarn/scheduler.h"

namespace mrapid::perfbench {

// Calls through one seam and the host time spent inside them.
struct CallTimer {
  std::uint64_t calls = 0;
  double seconds = 0.0;

  void add(const CallTimer& other) {
    calls += other.calls;
    seconds += other.seconds;
  }
};

// Times `fn()` into `timer`.
template <typename Fn>
decltype(auto) timed(CallTimer& timer, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  struct Stop {
    CallTimer& timer;
    Clock::time_point start = Clock::now();
    ~Stop() {
      ++timer.calls;
      timer.seconds += std::chrono::duration<double>(Clock::now() - start).count();
    }
  } stop{timer};
  return fn();
}

struct WorkloadTimes {
  CallTimer construct, map, reduce, partition, digest;

  void add(const WorkloadTimes& other) {
    construct.add(other.construct);
    map.add(other.map);
    reduce.add(other.reduce);
    partition.add(other.partition);
    digest.add(other.digest);
  }
  // Payload time spent inside World::run.
  double in_run_seconds() const { return map.seconds + reduce.seconds + partition.seconds; }
};

// Forwards every JobLogic/Workload call to `inner`, timing the payload
// entry points. Not thread-safe: one instance per trial.
class TimedWorkload final : public wl::Workload {
 public:
  explicit TimedWorkload(wl::Workload& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::string signature() const override { return inner_.signature(); }
  std::vector<std::string> stage(hdfs::Hdfs& hdfs) override { return inner_.stage(hdfs); }
  mr::MapOutcome execute_map(const mr::InputSplit& split) const override {
    return timed(times_.map, [&] { return inner_.execute_map(split); });
  }
  mr::ReduceOutcome execute_reduce(std::span<const mr::MapOutcome> maps) const override {
    return timed(times_.reduce, [&] { return inner_.execute_reduce(maps); });
  }
  std::vector<mr::MapOutcome> partition_map_output(const mr::MapOutcome& outcome,
                                                   int reducers) const override {
    return timed(times_.partition, [&] { return inner_.partition_map_output(outcome, reducers); });
  }
  std::uint64_t result_digest(const mr::JobResult& result) const override {
    return timed(times_.digest, [&] { return inner_.result_digest(result); });
  }
  double compute_contention() const override { return inner_.compute_contention(); }

  const WorkloadTimes& times() const { return times_; }

 private:
  wl::Workload& inner_;
  mutable WorkloadTimes times_;
};

struct SchedulerTimes {
  CallTimer node_update, container_request;
};

// Forwards the yarn::Scheduler seam to a registry-built policy, timing
// the two RM events the paper names.
class TimedScheduler final : public yarn::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<yarn::Scheduler> inner) : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  bool allocates_immediately() const override { return inner_->allocates_immediately(); }
  void bind(yarn::SchedulerContext* context) override {
    Scheduler::bind(context);
    inner_->bind(context);
  }
  void on_container_request(std::vector<yarn::Ask> asks) override {
    timed(times_.container_request,
          [&] { inner_->on_container_request(std::move(asks)); });
  }
  void on_node_update(cluster::NodeId node) override {
    timed(times_.node_update, [&] { inner_->on_node_update(node); });
  }
  void cancel_asks(yarn::AppId app) override { inner_->cancel_asks(app); }
  std::size_t queued_asks() const override { return inner_->queued_asks(); }
  void on_container_finished(const yarn::Container& container) override {
    inner_->on_container_finished(container);
  }
  const yarn::WaitingTimeEstimator* wait_estimator() const override {
    return inner_->wait_estimator();
  }
  void set_app_runtime_hint(yarn::AppId app, double seconds) override {
    inner_->set_app_runtime_hint(app, seconds);
  }

  yarn::Scheduler& inner() { return *inner_; }
  const SchedulerTimes& times() const { return times_; }

 private:
  std::unique_ptr<yarn::Scheduler> inner_;
  SchedulerTimes times_;
};

// Registers a TimedScheduler over each built-in policy in
// core::SchedulerRegistry, under timed_scheduler_name(policy). Call
// once, before any world is built (the registry is not thread-safe).
void register_timed_schedulers();
std::string timed_scheduler_name(const std::string& policy);

}  // namespace mrapid::perfbench
