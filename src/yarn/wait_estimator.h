#pragma once

// Queueing-theory waiting-time prediction for container asks.
//
// Every PolicyScheduler feeds one of these from the three observable
// moments of an ask's life: arrival (enqueue), allocation (the wait
// sample) and container finish (the service-time sample). The
// prediction blends
//
//   * an M/G/c approximation of the Pollaczek–Khinchine mean wait,
//       Wq = lambda * E[S^2] / (2 c (1 - rho)),  rho = lambda E[S] / c,
//     with lambda estimated from the arrival span, the service moments
//     from finished containers and c from the cluster's schedulable
//     vcores (one task container per vcore in the a-series presets);
//   * an EWMA of the waits actually observed, which captures whatever
//     the formula's Poisson/steady-state assumptions miss (bursty MMPP
//     tenants, backfilling reordering, heartbeat quantisation).
//
// MRapid's DecisionMaker consumes predicted_wait_s() as Eq. 3's queue
// delay term — the paper's structural constant (one container launch)
// assumed an idle cluster, which multi-tenant streams violate.
//
// Everything here is arithmetic over observed values: no RNG, no
// clock, so predictions are as deterministic as the simulation that
// feeds them.

#include <cstddef>

namespace mrapid::yarn {

struct WaitEstimatorOptions {
  // Prediction before any observation has arrived (an empty queue on a
  // cold cluster waits for nothing).
  double cold_wait_s = 0.0;
  // Weight of a new wait sample in the EWMA.
  double ewma_alpha = 0.2;
  // Blend weight of the M/G/c term against the EWMA once both exist.
  double model_weight = 0.5;
  // rho is clamped below 1 so a transient overload degrades to "very
  // long" rather than infinite/negative.
  double max_utilization = 0.95;
};

class WaitingTimeEstimator {
 public:
  explicit WaitingTimeEstimator(WaitEstimatorOptions options = {});

  // Number of servers c (schedulable task slots); refreshed by the
  // scheduler as nodes join, expire and rejoin.
  void set_servers(int servers);

  void observe_arrival(double now_s);
  void observe_wait(double wait_s);
  void observe_service(double service_s);

  double predicted_wait_s() const;

  // Introspection (shootout tables, tests).
  int servers() const { return servers_; }
  std::size_t arrivals() const { return arrivals_; }
  std::size_t waits_observed() const { return waits_; }
  std::size_t services_observed() const { return services_; }
  double mean_service_s() const;
  double arrival_rate_per_s() const;  // lambda estimate
  double utilization() const;         // unclamped rho estimate
  double model_wait_s() const;        // the pure M/G/c term
  double observed_wait_ewma_s() const { return wait_ewma_s_; }

 private:
  WaitEstimatorOptions options_;
  int servers_ = 1;
  std::size_t arrivals_ = 0;
  double first_arrival_s_ = 0.0;
  double last_arrival_s_ = 0.0;
  std::size_t waits_ = 0;
  double wait_ewma_s_ = 0.0;
  std::size_t services_ = 0;
  double service_sum_s_ = 0.0;
  double service_sq_sum_s_ = 0.0;
};

}  // namespace mrapid::yarn
