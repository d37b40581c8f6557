#pragma once

// Simulation-core throughput measurement (the `sim_core` experiment).
//
// Every sweep, fault matrix and fuzz campaign is ultimately a stream of
// events through sim::EventQueue, so events/sec is the repo's
// highest-leverage performance number. Four variants, each driving one
// engine directly (end-to-end runs are perfbench's job):
//
//   event-churn      steady-state push/fire with a bounded window of
//                    outstanding events — the shape of a long
//                    simulation run,
//   cancel-heavy     the heartbeat/replan pattern (schedule a
//                    completion, cancel it, reschedule) that bandwidth
//                    resources and liveness timers produce,
//   placement-shuffle a scripted block-write/shuffle-flow mix driven
//                    straight at the placement policy + flow network
//                    on a 10k-node fabric; throughput counts replica
//                    draws + rate replans,
//   job-scale        one wide MapReduce job (2k maps x 512 reducers
//                    at 1k nodes full; 256 x 64 at 128 smoke) driven
//                    straight at the ReduceRunner fetch engine;
//                    throughput counts shuffle fetches (M·R).
//
// Each variant reports absolute throughput. The queue microbenchmarks
// keep the fastest of several repetitions, which rides out short
// slowdowns of a shared host. Results are recorded in
// BENCH_simcore.json at the repo root; docs/PERF.md keeps the speedups
// measured when each engine replaced its predecessor.

#include <cstddef>
#include <cstdint>

namespace mrapid::exp {

struct SimCoreResult {
  // Fired events (churn), queue ops (cancel-heavy), replica draws +
  // replans (placement-shuffle) or fetches (job-scale).
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t cancelled = 0;
  std::size_t heap_peak = 0;
  std::size_t slab_slots = 0;
  // Shuffle counters (mr::ShuffleStats) for the variants that run the
  // MapReduce fetch engine; zero for the queue-only variants.
  std::uint64_t fetches = 0;
  std::uint64_t coalesced_flows = 0;
  std::uint64_t partition_calls = 0;
};

// Steady-state churn: prime `window` outstanding events, then
// fire-one/push-one until `events` have fired.
SimCoreResult sim_core_event_churn(std::uint64_t events, std::size_t window);

// Heartbeat/replan: per step, fire due events, cancel the outstanding
// completion, schedule a new one; every 8th step adds a short-fuse
// heartbeat that actually fires. Throughput counts push+cancel+fire.
SimCoreResult sim_core_cancel_heavy(std::uint64_t steps);

// Placement/shuffle hot paths, measured the way event-churn measures
// the queue: a deterministic scripted mix of replica draws (external
// and datanode writers), block-pipeline shuffle flows, cancels and
// fluid advances, driven straight at BlockPlacementPolicy + Network on
// a datacenter-shaped fabric (10k nodes full, 256 smoke; ~40
// nodes/rack, bounded live-flow population). `events` counts replica
// draws + rate replans, so events/sec is the replan+placement rate.
SimCoreResult sim_core_placement_shuffle(bool smoke);

// The shuffle/job hot paths, driven straight at the ReduceRunner fetch
// engine: one wide job's worth of fabricated map results (a band-of-16
// hash partitioner, pairs of maps per source node) fed to every
// reducer of a 2k-map x 512-reducer job on a 1k-node fabric (256 x 64
// on 128 nodes smoke), through the partition-once MapOutputRegistry,
// slab fetch records and same-(src,dst) leg coalescing. `events`
// counts fetches, so events/sec is the shuffle-fetch rate.
SimCoreResult sim_core_job_scale(bool smoke);

}  // namespace mrapid::exp
