#pragma once

// YARN runtime constants. Defaults are Hadoop-2.2-era values; the
// per-figure benches only vary what the paper varies.

#include "sim/time.h"
#include "yarn/records.h"

namespace mrapid::yarn {

struct YarnConfig {
  // Periodic heartbeats. Hadoop 2.2 defaults: NM->RM 1 s
  // (yarn.resourcemanager.nodemanagers.heartbeat-interval-ms) and
  // AM->RM 1 s (yarn.app.mapreduce.am.scheduler.heartbeat.interval-ms).
  sim::SimDuration nm_heartbeat = sim::SimDuration::seconds(1.0);
  sim::SimDuration am_heartbeat = sim::SimDuration::seconds(1.0);

  // One-way RPC latency for non-heartbeat control messages
  // (startContainer etc.).
  sim::SimDuration rpc_latency = sim::SimDuration::millis(1.0);

  // Container (JVM) launch cost t^l: localization + JVM spin-up.
  sim::SimDuration container_launch = sim::SimDuration::seconds(1.5);
  // Extra AM initialisation after its JVM is up (download splits,
  // job.xml, build the job model).
  sim::SimDuration am_init = sim::SimDuration::seconds(1.5);

  // Default task / AM container sizes (mapreduce.map.memory.mb = 1024,
  // AM 1536 MB in Hadoop 2.2).
  Resource task_container{1, 1024};
  Resource am_container{1, 1536};

  // Fig. 12 knob: how many container vcores each physical core
  // advertises (yarn vcore over-subscription).
  int containers_per_core = 1;

  // Memory the NM keeps back for daemons.
  std::int64_t nm_memory_reserve_mb = 1024;

  // ---- liveness / fault recovery (off unless a FaultPlan is active) --
  // When true the RM tracks per-NM heartbeat recency and expires nodes
  // whose last beat is older than `nm_expiry`
  // (yarn.nm.liveness-monitor.expiry-interval-ms; Hadoop's default is
  // 10 minutes — shortened here so short-job scenarios see recovery
  // inside their deadline).
  bool track_liveness = false;
  sim::SimDuration nm_expiry = sim::SimDuration::seconds(10.0);
  // A node that expired this many times is blacklisted (failure-aware
  // scheduling a la ATLAS): schedulers stop placing work on it even if
  // it rejoins.
  int node_blacklist_threshold = 2;
  // Total AM attempts per application, first launch included
  // (mapreduce.am.max-attempts). Exhausting it fails the app cleanly.
  int am_max_attempts = 2;
};

}  // namespace mrapid::yarn
