#include "mm/storage/metadata.h"

namespace mm::storage {

namespace {
constexpr std::uint64_t kControlBytes = 128;  // metadata message size

void SetDone(sim::SimTime end, sim::SimTime* done) {
  if (done != nullptr) *done = end;
}
}  // namespace

sim::SimTime MetadataManager::ChargeRtt(std::size_t home, std::size_t from,
                                        sim::SimTime now) const {
  if (home == from) return now;  // local shard access
  auto req = network_->Transfer(now, from, home, kControlBytes);
  auto rsp = network_->Transfer(req.delivered, home, from, kControlBytes);
  return rsp.delivered;
}

StatusOr<BlobLocation> MetadataManager::Lookup(const BlobId& id,
                                               std::size_t from_node,
                                               sim::SimTime now,
                                               sim::SimTime* done) const {
  std::size_t home = HomeNode(id);
  SetDone(ChargeRtt(home, from_node, now), done);
  Shard& shard = shards_[home];
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) {
    return NotFound("no metadata for blob " + id.ToString());
  }
  return it->second.loc;
}

std::vector<std::optional<BlobLocation>> MetadataManager::LookupBatch(
    const std::vector<BlobId>& ids, std::size_t from_node, sim::SimTime now,
    sim::SimTime* done) const {
  // One coalesced request per touched shard, charged in ascending home
  // order; shards answer in parallel.
  std::vector<std::size_t> homes(ids.size());
  std::vector<bool> touched(shards_.size(), false);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    homes[i] = HomeNode(ids[i]);
    touched[homes[i]] = true;
  }
  sim::SimTime end = now;
  for (std::size_t home = 0; home < shards_.size(); ++home) {
    if (touched[home]) end = std::max(end, ChargeRtt(home, from_node, now));
  }
  SetDone(end, done);
  // Each touched shard is locked once and answers its ids in input order.
  std::vector<std::optional<BlobLocation>> out(ids.size());
  for (std::size_t home = 0; home < shards_.size(); ++home) {
    if (!touched[home]) continue;
    Shard& shard = shards_[home];
    MutexLock lock(shard.mu);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (homes[i] != home) continue;
      auto it = shard.entries.find(ids[i]);
      if (it != shard.entries.end()) out[i] = it->second.loc;
    }
  }
  return out;
}

Status MetadataManager::Update(const BlobId& id, const BlobLocation& loc,
                               std::size_t from_node, sim::SimTime now,
                               sim::SimTime* done) {
  std::size_t home = HomeNode(id);
  SetDone(ChargeRtt(home, from_node, now), done);
  Shard& shard = shards_[home];
  MutexLock lock(shard.mu);
  shard.entries[id].loc = loc;
  return Status::Ok();
}

void MetadataManager::ClearDirty(const BlobId& id, std::uint64_t version,
                                 std::size_t from_node, sim::SimTime now,
                                 sim::SimTime* done) {
  std::size_t home = HomeNode(id);
  SetDone(ChargeRtt(home, from_node, now), done);
  Shard& shard = shards_[home];
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it != shard.entries.end() && it->second.loc.version == version) {
    it->second.loc.dirty = false;
  }
}

Status MetadataManager::Remove(const BlobId& id, std::size_t from_node,
                               sim::SimTime now, sim::SimTime* done) {
  std::size_t home = HomeNode(id);
  SetDone(ChargeRtt(home, from_node, now), done);
  Shard& shard = shards_[home];
  MutexLock lock(shard.mu);
  if (shard.entries.erase(id) == 0) {
    return NotFound("no metadata for blob " + id.ToString());
  }
  return Status::Ok();
}

Status MetadataManager::AddReplica(const BlobId& id, std::size_t replica_node,
                                   std::size_t from_node, sim::SimTime now,
                                   sim::SimTime* done) {
  std::size_t home = HomeNode(id);
  SetDone(ChargeRtt(home, from_node, now), done);
  Shard& shard = shards_[home];
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) {
    return NotFound("no metadata for blob " + id.ToString());
  }
  for (std::size_t n : it->second.replicas) {
    if (n == replica_node) return Status::Ok();  // idempotent
  }
  it->second.replicas.push_back(replica_node);
  return Status::Ok();
}

Status MetadataManager::RemoveReplica(const BlobId& id,
                                      std::size_t replica_node,
                                      std::size_t from_node, sim::SimTime now,
                                      sim::SimTime* done) {
  std::size_t home = HomeNode(id);
  SetDone(ChargeRtt(home, from_node, now), done);
  Shard& shard = shards_[home];
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) return Status::Ok();
  auto& replicas = it->second.replicas;
  for (auto rit = replicas.begin(); rit != replicas.end(); ++rit) {
    if (*rit == replica_node) {
      replicas.erase(rit);
      break;
    }
  }
  return Status::Ok();
}

std::vector<std::size_t> MetadataManager::Replicas(const BlobId& id,
                                                   std::size_t from_node,
                                                   sim::SimTime now,
                                                   sim::SimTime* done) const {
  std::size_t home = HomeNode(id);
  SetDone(ChargeRtt(home, from_node, now), done);
  Shard& shard = shards_[home];
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) return {};
  return it->second.replicas;
}

std::vector<std::size_t> MetadataManager::InvalidateReplicas(
    const BlobId& id, std::size_t from_node, sim::SimTime now,
    sim::SimTime* done) {
  std::size_t home = HomeNode(id);
  sim::SimTime rtt_done = ChargeRtt(home, from_node, now);
  Shard& shard = shards_[home];
  std::vector<std::size_t> dropped;
  {
    MutexLock lock(shard.mu);
    auto it = shard.entries.find(id);
    if (it != shard.entries.end()) {
      dropped.swap(it->second.replicas);
    }
  }
  // Invalidation messages fan out from the home node to each replica.
  sim::SimTime end = rtt_done;
  for (std::size_t node : dropped) {
    auto inval = network_->Transfer(rtt_done, home, node, kControlBytes);
    end = std::max(end, inval.delivered);
  }
  SetDone(end, done);
  return dropped;
}

std::vector<BlobId> MetadataManager::BlobsOfVector(
    std::uint64_t vector_id) const {
  std::vector<BlobId> ids;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [id, _] : shard.entries) {
      if (id.vector_id == vector_id) ids.push_back(id);
    }
  }
  return ids;
}

std::size_t MetadataManager::TotalBlobs() const {
  std::size_t total = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace mm::storage
