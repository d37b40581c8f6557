#include "mapreduce/task_runner.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/log.h"
#include "sim/trace.h"

namespace mrapid::mr {

using cluster::Locality;
using cluster::NodeId;

int spill_count(Bytes output_bytes, const MRConfig& config) {
  if (output_bytes <= 0) return 0;
  const double threshold =
      static_cast<double>(config.sort_buffer) * config.spill_percent;
  return std::max(1, static_cast<int>(std::ceil(static_cast<double>(output_bytes) / threshold)));
}

namespace {

Locality best_locality(const cluster::Topology& topology, NodeId node,
                       const std::vector<NodeId>& hosts) {
  Locality best = Locality::kAny;
  for (NodeId host : hosts) {
    const Locality l = topology.locality(node, host);
    if (static_cast<int>(l) < static_cast<int>(best)) best = l;
  }
  return best;
}

}  // namespace

// NB: TaskEnv is captured *by value* throughout (it only holds
// references and a shared_ptr), so callbacks stay valid however long
// the fluid transfers take.
void run_map_task(const TaskEnv& env_in, const JobSpec& spec, const InputSplit& split,
                  NodeId node, MapTaskOptions options, std::function<void(MapTaskResult)> done,
                  int attempt) {
  TaskEnv env = env_in;
  const JobLogic* logic = spec.logic;

  // A dead node runs nothing: an attempt dispatched onto it (an uber
  // AM keeps dispatching until the RM expires its node) never starts.
  if (env.is_killed() || env.cluster.node(node).is_down()) return;

  auto state = std::make_shared<MapTaskResult>();
  state->profile.index = static_cast<int>(split.index_in_job);
  state->profile.attempt = attempt;
  state->profile.node = node;
  state->profile.locality = best_locality(env.cluster.topology(), node, split.hosts);
  state->profile.start = env.sim.now();
  state->profile.input_bytes = split.length;
  MRAPID_TRACE(env.sim, sim::TraceCategory::kTask, "map.start", {"app", env.app},
               {"job", env.job}, {"task", state->profile.index},
               {"attempt", attempt}, {"node", node}, {"input_bytes", split.length});

  // Phase 2: read the split from HDFS (phase 1, setup, was the
  // container launch itself).
  env.hdfs.read_block(split.block_id, node, [env, logic, split, node, options, state,
                                             done = std::move(done)]() mutable {
    if (env.is_killed() || env.cluster.node(node).is_down()) return;
    state->profile.read_done = env.sim.now();

    // Phase 3: the map function — real computation, timed as fluid
    // CPU work so co-located tasks contend for cores.
    state->outcome = logic->execute_map(split);
    state->profile.output_bytes = state->outcome.output_bytes;

    // Fault injection: this attempt may crash partway through its
    // compute; the partial work is charged (and wasted).
    const FaultConfig& faults = env.config.faults;
    if (faults.enabled() && env.sim.rng("mr.faults").next_double() < faults.map_failure_prob) {
      const double fraction = env.sim.rng("mr.faults").next_real(0.05, 0.95);
      const Bytes partial = cluster::Node::cpu_work(
          sim::SimDuration::seconds(state->outcome.core_seconds * fraction));
      env.cluster.node(node).cpu().start(
          partial, logic->compute_contention(),
          [env, state, done = std::move(done)](sim::SimDuration) mutable {
            if (env.is_killed() || env.cluster.node(state->profile.node).is_down()) return;
            state->failed = true;
            state->outcome = MapOutcome{};  // crashed: nothing produced
            state->profile.output_bytes = 0;
            state->profile.compute_done = env.sim.now();
            state->profile.end = env.sim.now();
            MRAPID_TRACE(env.sim, sim::TraceCategory::kTask, "map.failed", {"app", env.app},
                         {"job", env.job}, {"task", state->profile.index},
                         {"attempt", state->profile.attempt}, {"node", state->profile.node});
            done(std::move(*state));
          });
      return;
    }

    const Bytes work = cluster::Node::cpu_work(
        sim::SimDuration::seconds(state->outcome.core_seconds));
    env.cluster.node(node).cpu().start(work, logic->compute_contention(),
                                       [env, node, options, state,
                                        done = std::move(done)](sim::SimDuration) mutable {
      if (env.is_killed() || env.cluster.node(node).is_down()) return;
      state->profile.compute_done = env.sim.now();

      auto finish = [env, state, done = std::move(done)]() mutable {
        if (env.is_killed() || env.cluster.node(state->profile.node).is_down()) return;
        state->profile.end = env.sim.now();
        MRAPID_TRACE(env.sim, sim::TraceCategory::kTask, "map.done", {"app", env.app},
                     {"job", env.job}, {"task", state->profile.index},
                     {"attempt", state->profile.attempt}, {"node", state->profile.node},
                     {"output_bytes", state->profile.output_bytes});
        done(std::move(*state));
      };

      const Bytes out = state->outcome.output_bytes;
      const bool spill = out > 0 && (!options.spill_decider || options.spill_decider(out));
      if (!spill) {
        // U+ in-memory path: intermediate data stays cached.
        state->profile.output_in_memory = true;
        state->profile.spills = 0;
        if (out > 0) {
          MRAPID_TRACE(env.sim, sim::TraceCategory::kTask, "map.cached", {"app", env.app},
                       {"job", env.job}, {"task", state->profile.index},
                       {"attempt", state->profile.attempt}, {"bytes", out});
        }
        env.sim.schedule_now(std::move(finish), "map:in-memory");
        return;
      }

      // Phase 4: spill — write the sorted output to local disk.
      state->profile.spills = spill_count(out, env.config);
      MRAPID_TRACE(env.sim, sim::TraceCategory::kTask, "map.spill", {"app", env.app},
                   {"job", env.job}, {"task", state->profile.index},
                   {"attempt", state->profile.attempt}, {"bytes", out},
                   {"spills", state->profile.spills});
      auto& disk_write = env.cluster.node(node).disk_write();
      disk_write.start(out, [env, node, out, state, finish = std::move(finish)](
                                sim::SimDuration) mutable {
        if (env.is_killed() || env.cluster.node(node).is_down()) return;
        if (state->profile.spills <= 1) {
          finish();
          return;
        }
        // Phase 5: merge — read every spill back and write the merged
        // file (s^o/d^o + s^o/d^i in the paper's notation).
        auto after_read = [env, node, out, finish = std::move(finish)](
                              sim::SimDuration) mutable {
          if (env.is_killed() || env.cluster.node(node).is_down()) return;
          env.cluster.node(node).disk_write().start(
              out, [finish = std::move(finish)](sim::SimDuration) mutable { finish(); });
        };
        env.cluster.node(node).disk_read().start(out, std::move(after_read));
      });
    });
  });
}

ReduceRunner::ReduceRunner(const TaskEnv& env, const JobSpec& spec, int partition,
                           std::string output_path, NodeId node, int total_maps,
                           DoneCallback done, int attempt)
    : env_(env),
      spec_(spec),
      partition_(partition),
      output_path_(std::move(output_path)),
      node_(node),
      total_maps_(total_maps),
      done_(std::move(done)),
      attempt_(attempt) {
  outcomes_.resize(static_cast<std::size_t>(total_maps));
  fetch_state_.resize(static_cast<std::size_t>(total_maps), FetchState::kNone);
  profile_.index = partition;
  profile_.attempt = attempt;
  profile_.node = node;
}

void ReduceRunner::start() {
  assert(!started_);
  started_ = true;
  if (halted()) return;  // a dead node runs nothing
  profile_.start = env_.sim.now();
  MRAPID_TRACE_ATTEMPT(env_.sim, sim::TraceCategory::kTask, "reduce.start", attempt_,
                       {"app", env_.app}, {"job", env_.job}, {"partition", partition_},
                       {"node", node_});
  std::vector<MapTaskResult> backlog;
  backlog.swap(pending_);
  for (const auto& result : backlog) fetch(result);
  flush_net_legs();
  maybe_finish_shuffle();  // handles the zero-map edge case
}

void ReduceRunner::on_map_output(const MapTaskResult& result) {
  if (halted()) return;
  if (!started_) {
    pending_.push_back(result);
    return;
  }
  fetch(result);
  flush_net_legs();
}

void ReduceRunner::on_map_outputs(std::span<const MapTaskResult> results) {
  for (const MapTaskResult& result : results) {
    if (halted()) break;
    if (!started_) {
      pending_.push_back(result);
      continue;
    }
    fetch(result);
  }
  flush_net_legs();
}

void ReduceRunner::fetch(const MapTaskResult& result) {
  if (halted()) return;
  const NodeId src = result.profile.node;
  const int index = result.profile.index;
  if (fetch_state_[static_cast<std::size_t>(index)] != FetchState::kNone) return;
  if (env_.cluster.node(src).is_down()) {
    // The map's output died with its node before we could move it.
    // Report upward (the AM re-runs the map); the fetch slot stays
    // open for the re-announcement.
    if (fetch_failed_) {
      env_.sim.schedule_now([this, index] {
        if (!halted() && fetch_failed_) fetch_failed_(index);
      }, "shuffle:fetch-failed");
    }
    return;
  }
  fetch_state_[static_cast<std::size_t>(index)] = FetchState::kInflight;
  if (ShuffleStats* stats = env_.config.shuffle_stats) ++stats->fetches;

  // O(1) shard lookup in the partition-once registry, a slab fetch
  // record joining the disk and network legs (the 16-byte
  // {this, slot, generation} leg captures fit std::function's
  // small-buffer storage), and network legs batched per consecutive
  // source so one dispatch's same-(src,dst) fetches share one flow.
  if (registry_ == nullptr) {
    own_registry_ =
        std::make_unique<MapOutputRegistry>(spec_, total_maps_, env_.config.shuffle_stats);
    registry_ = own_registry_.get();
  }
  const MapOutcome& shard = registry_->shard(index, partition_, result.outcome);
  const Bytes bytes = shard.output_bytes;
  outcomes_[static_cast<std::size_t>(index)] = shard;
  MRAPID_TRACE_ATTEMPT(env_.sim, sim::TraceCategory::kShuffle, "shuffle.fetch", attempt_,
                       {"app", env_.app}, {"job", env_.job}, {"partition", partition_},
                       {"map", index}, {"bytes", bytes}, {"src", src}, {"dst", node_});

  if (bytes == 0 || (src == node_ && result.profile.output_in_memory)) {
    // Nothing to move: in-memory output already sits in the consuming
    // JVM (the U+ single-container case). Local fetches never touch
    // the net-leg batcher, so they don't break a same-source run.
    env_.sim.schedule_now([this, bytes, index] {
      if (halted()) return;
      finish_fetch(index, bytes);
    }, "shuffle:local");
    return;
  }

  // Remote/on-disk fetch: source disk read (when spilled) and the
  // network flow stream concurrently; the fetch lands when both legs
  // finish. Same-node fetches use the loopback link.
  const std::uint32_t slot = alloc_fetch_record();
  FetchRecord& rec = fetch_records_[slot];
  rec.pending = result.profile.output_in_memory ? 1 : 2;
  rec.map_index = index;
  rec.bytes = bytes;
  const std::uint32_t gen = rec.generation;
  if (!result.profile.output_in_memory) {
    env_.cluster.node(src).disk_read().start(
        bytes, [this, slot, gen](sim::SimDuration) { fetch_leg_done(slot, gen); });
  }
  if (pending_src_ != src) flush_net_legs();
  pending_src_ = src;
  const cluster::Network::FlowId id = env_.cluster.network().announce_flow(src, node_, bytes);
  pending_legs_.push_back(cluster::Network::LegStart{
      id, bytes, [this, slot, gen](sim::SimDuration) { fetch_leg_done(slot, gen); }});
}

void ReduceRunner::flush_net_legs() {
  if (pending_legs_.empty()) return;
  if (pending_legs_.size() > 1) {
    if (ShuffleStats* stats = env_.config.shuffle_stats) {
      stats->coalesced_flows += pending_legs_.size() - 1;
    }
  }
  env_.cluster.network().start_announced(pending_src_, node_, pending_legs_);
  pending_src_ = cluster::kInvalidNode;
}

std::uint32_t ReduceRunner::alloc_fetch_record() {
  if (!free_fetch_records_.empty()) {
    const std::uint32_t slot = free_fetch_records_.back();
    free_fetch_records_.pop_back();
    return slot;
  }
  fetch_records_.emplace_back();
  return static_cast<std::uint32_t>(fetch_records_.size() - 1);
}

void ReduceRunner::fetch_leg_done(std::uint32_t slot, std::uint32_t generation) {
  FetchRecord& rec = fetch_records_[slot];
  if (rec.generation != generation) return;  // a previous tenant's leg
  if (--rec.pending > 0) return;
  const int index = rec.map_index;
  const Bytes bytes = rec.bytes;
  ++rec.generation;  // O(1) retire: any outstanding stale leg is inert
  free_fetch_records_.push_back(slot);
  if (halted()) return;
  finish_fetch(index, bytes);
}

void ReduceRunner::finish_fetch(int index, Bytes bytes) {
  fetch_state_[static_cast<std::size_t>(index)] = FetchState::kDone;
  ++fetched_;
  shuffled_bytes_ += bytes;
  maybe_finish_shuffle();
}

void ReduceRunner::maybe_finish_shuffle() {
  if (!started_ || fetched_ < total_maps_ || halted()) return;
  profile_.read_done = env_.sim.now();
  profile_.input_bytes = shuffled_bytes_;
  MRAPID_TRACE_ATTEMPT(env_.sim, sim::TraceCategory::kTask, "reduce.shuffle_done", attempt_,
                       {"app", env_.app}, {"job", env_.job}, {"partition", partition_},
                       {"bytes", shuffled_bytes_});
  run_reduce_phase();
}

void ReduceRunner::run_reduce_phase() {
  // Merge-sort the fetched segments, run the reduce function, write
  // the output file to HDFS, commit.
  //
  // The injected-bug hook (fuzzer shrinker self-test) corrupts a local
  // copy of the shard list only — timing, byte counts, and traces are
  // untouched, so *only* the differential result oracle can tell.
  ReduceOutcome outcome;
  if (env_.config.injected_bug == InjectedBug::kNone) {
    outcome = spec_.logic->execute_reduce(outcomes_);
  } else {
    std::vector<MapOutcome> corrupted(outcomes_.begin(), outcomes_.end());
    if (env_.config.injected_bug == InjectedBug::kDropShard) {
      if (corrupted.size() >= 2) corrupted[0].data.reset();
    } else if (env_.config.injected_bug == InjectedBug::kDupShard) {
      if (!corrupted.empty()) corrupted.push_back(corrupted[0]);
    }
    outcome = spec_.logic->execute_reduce(corrupted);
  }
  const Bytes work =
      cluster::Node::cpu_work(sim::SimDuration::seconds(outcome.core_seconds));
  env_.cluster.node(node_).cpu().start(work, spec_.logic->compute_contention(),
                                       [this, outcome](sim::SimDuration) {
    if (halted()) return;
    profile_.compute_done = env_.sim.now();
    profile_.output_bytes = outcome.output_bytes;
    env_.hdfs.write_file(output_path_, outcome.output_bytes, node_, [this, outcome] {
      if (halted()) return;
      env_.sim.schedule_after(env_.config.commit_overhead, [this, outcome] {
        if (halted()) return;
        profile_.end = env_.sim.now();
        MRAPID_TRACE_ATTEMPT(env_.sim, sim::TraceCategory::kTask, "reduce.done", attempt_,
                             {"app", env_.app}, {"job", env_.job}, {"partition", partition_},
                             {"node", node_}, {"output_bytes", outcome.output_bytes});
        done_(profile_, outcome);
      }, "reduce:commit");
    });
  });
}

}  // namespace mrapid::mr
