#pragma once

// The HDFS facade: metadata via the NameNode plus the *timed* data
// path (block reads and writes that charge disk and network time in
// the simulation).
//
// Remote reads model DataNode streaming: the replica's disk read and
// the network flow run concurrently and the read completes when both
// are done, i.e. the effective rate is governed by the slower of the
// two (as in a real pipelined stream).

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "hdfs/namenode.h"
#include "sim/simulation.h"

namespace mrapid::hdfs {

struct HdfsConfig {
  Bytes block_size = 64_MB;  // Hadoop 2.2 default (dfs.blocksize = 64 MB pre-2.2, 128 MB later;
                             // the paper's 10 MB files are single-block either way)
  int replication = 3;
  sim::SimDuration namenode_rpc = sim::SimDuration::millis(0.3);
};

class Hdfs {
 public:
  using Callback = std::function<void()>;

  Hdfs(cluster::Cluster& cluster, HdfsConfig config);

  const HdfsConfig& config() const { return config_; }
  NameNode& namenode() { return *namenode_; }
  const NameNode& namenode() const { return *namenode_; }

  // Registers a file instantly (no simulated time): used to model
  // datasets that already live in the cluster before the job starts.
  const FileInfo* preload_file(const std::string& path, Bytes size,
                               cluster::NodeId writer = cluster::kInvalidNode);
  const FileInfo* preload_file(const std::string& path, Bytes size, Bytes block_size,
                               cluster::NodeId writer);

  // Timed write: NameNode RPC, then per block a replication pipeline
  // (network flow writer->replica where remote, plus each replica's
  // disk write). `done` fires when every replica of every block is
  // durable. Used for job jar/config uploads and reduce output.
  void write_file(const std::string& path, Bytes size, cluster::NodeId writer, Callback done);

  // Timed read of one block into `reader`. `done` fires when the last
  // byte arrives.
  void read_block(BlockId id, cluster::NodeId reader, Callback done);

  // Timed read of a whole file (all blocks in parallel).
  void read_file(const std::string& path, cluster::NodeId reader, Callback done);

  // Replica selection used by both the data path and the schedulers:
  // node-local first, then rack-local, then any (deterministic
  // tie-break via the simulation RNG).
  cluster::NodeId choose_replica(const BlockInfo& block, cluster::NodeId reader);

  // Bytes of replica data stored per node (for balance assertions).
  Bytes stored_bytes(cluster::NodeId node) const;

  // Observability for tests/benches: how many reads were served at
  // each locality level.
  struct ReadStats {
    std::size_t node_local = 0;
    std::size_t rack_local = 0;
    std::size_t off_rack = 0;
  };
  const ReadStats& read_stats() const { return read_stats_; }

 private:
  void account_file(const FileInfo& file);

  cluster::Cluster& cluster_;
  sim::Simulation& sim_;
  HdfsConfig config_;
  std::unique_ptr<NameNode> namenode_;
  std::unordered_map<cluster::NodeId, Bytes> stored_;
  ReadStats read_stats_;
};

}  // namespace mrapid::hdfs
