#include "hdfs/hdfs.h"

#include <cassert>
#include <memory>

#include "common/log.h"
#include "sim/trace.h"

namespace mrapid::hdfs {

using cluster::Locality;
using cluster::NodeId;

Hdfs::Hdfs(cluster::Cluster& cluster, HdfsConfig config)
    : cluster_(cluster), sim_(cluster.simulation()), config_(config) {
  std::vector<NodeId> datanodes = cluster.workers();
  assert(!datanodes.empty());
  namenode_ = std::make_unique<NameNode>(BlockPlacementPolicy(
      cluster.topology(), std::move(datanodes), RngStream(sim_.master_seed(), "hdfs.placement")));
}

void Hdfs::account_file(const FileInfo& file) {
  for (BlockId id : file.blocks) {
    const BlockInfo* block = namenode_->block(id);
    MRAPID_TRACE(sim_, sim::TraceCategory::kHdfs, "block.create", {"block", id},
                 {"bytes", block->size},
                 {"replicas", static_cast<std::int64_t>(block->replicas.size())});
    for (NodeId replica : block->replicas) stored_[replica] += block->size;
  }
}

const FileInfo* Hdfs::preload_file(const std::string& path, Bytes size, NodeId writer) {
  return preload_file(path, size, config_.block_size, writer);
}

const FileInfo* Hdfs::preload_file(const std::string& path, Bytes size, Bytes block_size,
                                   NodeId writer) {
  const FileInfo* file =
      namenode_->create_file(path, size, block_size, writer, config_.replication);
  if (file) account_file(*file);
  return file;
}

void Hdfs::write_file(const std::string& path, Bytes size, NodeId writer, Callback done) {
  const FileInfo* file =
      namenode_->create_file(path, size, config_.block_size, writer, config_.replication);
  if (!file) {
    LOG_WARN("hdfs", "write_file: %s already exists", path.c_str());
    sim_.schedule_now(std::move(done), "hdfs:write-dup");
    return;
  }
  account_file(*file);
  MRAPID_TRACE(sim_, sim::TraceCategory::kHdfs, "file.write", {"path", path}, {"bytes", size},
               {"writer", writer}, {"blocks", static_cast<std::int64_t>(file->blocks.size())});

  // Count outstanding sub-operations: per replica one disk write, plus
  // one network flow when the replica is not the writer itself.
  auto pending = std::make_shared<std::size_t>(0);
  auto finished = std::make_shared<Callback>(std::move(done));
  auto arm = [pending] { ++*pending; };
  auto fire = [pending, finished] {
    assert(*pending > 0);
    if (--*pending == 0) (*finished)();
  };

  for (std::size_t i = 0; i < file->blocks.size(); ++i) arm();  // RPC barrier per block
  for (BlockId id : file->blocks) {
    const BlockInfo* block = namenode_->block(id);
    sim_.schedule_after(config_.namenode_rpc, [this, block, writer, arm, fire] {
      for (NodeId replica : block->replicas) {
        arm();
        cluster_.node(replica).disk_write().start(block->size,
                                                  [fire](sim::SimDuration) { fire(); });
        if (replica != writer) {
          arm();
          cluster_.network().start_flow(writer, replica, block->size,
                                        [fire](sim::SimDuration) { fire(); });
        }
      }
      fire();  // release this block's RPC barrier
    }, "hdfs:write-block");
  }
}

NodeId Hdfs::choose_replica(const BlockInfo& block, NodeId reader) {
  assert(!block.replicas.empty());
  std::vector<NodeId> best;
  Locality best_locality = Locality::kAny;
  bool first = true;
  for (NodeId replica : block.replicas) {
    const Locality locality = cluster_.topology().locality(reader, replica);
    if (first || static_cast<int>(locality) < static_cast<int>(best_locality)) {
      best_locality = locality;
      best = {replica};
      first = false;
    } else if (locality == best_locality) {
      best.push_back(replica);
    }
  }
  if (best.size() == 1) return best.front();
  auto& rng = sim_.rng("hdfs.replica-choice");
  return best[static_cast<std::size_t>(
      rng.next_int(0, static_cast<std::int64_t>(best.size()) - 1))];
}

void Hdfs::read_block(BlockId id, NodeId reader, Callback done) {
  const BlockInfo* block = namenode_->block(id);
  assert(block && "read of unknown block");
  const NodeId replica = choose_replica(*block, reader);
  const Locality locality = cluster_.topology().locality(reader, replica);
  switch (locality) {
    case Locality::kNodeLocal: ++read_stats_.node_local; break;
    case Locality::kRackLocal: ++read_stats_.rack_local; break;
    case Locality::kAny: ++read_stats_.off_rack; break;
  }
  MRAPID_TRACE(sim_, sim::TraceCategory::kHdfs, "block.read", {"block", id},
               {"reader", reader}, {"replica", replica}, {"bytes", block->size});

  const Bytes size = block->size;
  sim_.schedule_after(config_.namenode_rpc, [this, replica, reader, size,
                                             done = std::move(done)]() mutable {
    if (replica == reader) {
      cluster_.node(replica).disk_read().start(size,
                                               [done = std::move(done)](sim::SimDuration) { done(); });
      return;
    }
    // Remote: disk read and network flow stream concurrently; the read
    // completes when both legs have moved every byte.
    auto pending = std::make_shared<int>(2);
    auto shared_done = std::make_shared<Callback>(std::move(done));
    auto fire = [pending, shared_done](sim::SimDuration) {
      if (--*pending == 0) (*shared_done)();
    };
    cluster_.node(replica).disk_read().start(size, fire);
    cluster_.network().start_flow(replica, reader, size, fire);
  }, "hdfs:read-block");
}

void Hdfs::read_file(const std::string& path, NodeId reader, Callback done) {
  const FileInfo* file = namenode_->lookup(path);
  assert(file && "read of unknown file");
  auto pending = std::make_shared<std::size_t>(file->blocks.size());
  auto shared_done = std::make_shared<Callback>(std::move(done));
  for (BlockId id : file->blocks) {
    read_block(id, reader, [pending, shared_done] {
      if (--*pending == 0) (*shared_done)();
    });
  }
}

Bytes Hdfs::stored_bytes(NodeId node) const {
  auto it = stored_.find(node);
  return it == stored_.end() ? 0 : it->second;
}

}  // namespace mrapid::hdfs
