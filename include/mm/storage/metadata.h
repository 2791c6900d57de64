// MetadataManager: the distributed blob directory ("metadata management to
// locate data in the DMSH", paper §III-E). Each blob's metadata is homed on
// a deterministic node (digest mod N); lookups and updates from other nodes
// charge a network round trip to the home node. Replication entries support
// the read-only-global coherence policy (paper Fig. 3).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "mm/sim/network.h"
#include "mm/storage/blob.h"
#include "mm/util/mutex.h"
#include "mm/util/status.h"

namespace mm::storage {

class MetadataManager {
 public:
  MetadataManager(std::size_t num_nodes, sim::Network* network)
      : network_(network), shards_(num_nodes) {}

  std::size_t HomeNode(const BlobId& id) const {
    return static_cast<std::size_t>(id.Digest() % shards_.size());
  }

  /// Looks up a blob's primary location. `from_node` pays the round trip
  /// when it is not the home node. `*done` receives the reply time.
  StatusOr<BlobLocation> Lookup(const BlobId& id, std::size_t from_node,
                                sim::SimTime now, sim::SimTime* done) const;

  /// Batched lookup: queries for many blobs are coalesced into one request
  /// per home shard (the shard round trips proceed in parallel, so `*done`
  /// advances by roughly a single round trip). Entries are nullopt for
  /// unknown blobs. Used by the transaction-begin acquire pass.
  std::vector<std::optional<BlobLocation>> LookupBatch(
      const std::vector<BlobId>& ids, std::size_t from_node, sim::SimTime now,
      sim::SimTime* done) const;

  /// Inserts or overwrites a blob's primary location.
  Status Update(const BlobId& id, const BlobLocation& loc,
                std::size_t from_node, sim::SimTime now, sim::SimTime* done);

  /// Clears the dirty flag only while the entry still carries `version`
  /// (one atomic step on the home shard): a commit that lands after a
  /// stage-out's snapshot keeps its newer version dirty.
  void ClearDirty(const BlobId& id, std::uint64_t version,
                  std::size_t from_node, sim::SimTime now, sim::SimTime* done);

  /// Removes a blob (and its replicas). NotFound if absent.
  Status Remove(const BlobId& id, std::size_t from_node, sim::SimTime now,
                sim::SimTime* done);

  /// Registers a replica of a read-only blob on `replica_node` so nearby
  /// readers can be served locally.
  Status AddReplica(const BlobId& id, std::size_t replica_node,
                    std::size_t from_node, sim::SimTime now,
                    sim::SimTime* done);

  /// Unregisters one replica (tier-failure recovery drops copies lost with
  /// a dead tier). Idempotent: absent entries/replicas are not an error.
  Status RemoveReplica(const BlobId& id, std::size_t replica_node,
                       std::size_t from_node, sim::SimTime now,
                       sim::SimTime* done);

  /// Replica set (primary excluded). Empty when none.
  std::vector<std::size_t> Replicas(const BlobId& id, std::size_t from_node,
                                    sim::SimTime now, sim::SimTime* done) const;

  /// Drops all replicas of a blob (phase change read-only -> writable).
  /// Returns the dropped replica nodes so callers can purge blob bytes.
  std::vector<std::size_t> InvalidateReplicas(const BlobId& id,
                                              std::size_t from_node,
                                              sim::SimTime now,
                                              sim::SimTime* done);

  /// All blob ids of a vector (scan; used by shutdown staging & tests).
  std::vector<BlobId> BlobsOfVector(std::uint64_t vector_id) const;

  std::size_t TotalBlobs() const;

 private:
  struct Entry {
    BlobLocation loc;
    std::vector<std::size_t> replicas;
  };
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<BlobId, Entry, BlobIdHash> entries MM_GUARDED_BY(mu);
  };

  /// Charges the control-message round trip to the home shard.
  sim::SimTime ChargeRtt(std::size_t home, std::size_t from,
                         sim::SimTime now) const;

  sim::Network* network_;
  mutable std::vector<Shard> shards_;
};

}  // namespace mm::storage
