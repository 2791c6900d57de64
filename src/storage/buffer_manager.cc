#include "mm/storage/buffer_manager.h"

#include <algorithm>

namespace mm::storage {

namespace {
void MergeDone(sim::SimTime end, sim::SimTime* done) {
  if (done != nullptr) *done = std::max(*done, end);
}
}  // namespace

BufferManager::BufferManager(sim::Node* node,
                             const std::vector<TierGrant>& grants,
                             sim::FaultInjector* injector, RetryPolicy retry,
                             telemetry::NodeSink sink)
    : retry_(retry),
      demotions_(sink.metrics->GetCounter("mm.tier.demotion_count")) {
  for (const TierGrant& grant : grants) {
    sim::Device* dev = node->FindTier(grant.kind);
    MM_CHECK_MSG(dev != nullptr, "node lacks granted tier");
    MM_CHECK_MSG(grant.capacity <= dev->spec().capacity_bytes,
                 "grant exceeds device capacity");
    tiers_.push_back(
        std::make_unique<TierStore>(dev, grant.capacity, injector, sink));
  }
  // Fastest-first ordering is required by the placement loops.
  for (std::size_t i = 1; i < tiers_.size(); ++i) {
    MM_CHECK_MSG(static_cast<int>(tiers_[i]->kind()) >
                     static_cast<int>(tiers_[i - 1]->kind()),
                 "tier grants must be sorted fastest-first");
  }
  tier_drained_.assign(tiers_.size(), false);
}

std::size_t BufferManager::num_live_tiers() const {
  std::size_t live = 0;
  for (const auto& t : tiers_) {
    if (!t->failed()) ++live;
  }
  return live;
}

void BufferManager::SetTierFailureHandler(TierFailureHandler handler) {
  MutexLock lock(mu_);
  failure_handler_ = std::move(handler);
}

std::uint64_t BufferManager::used() const {
  std::uint64_t total = 0;
  for (const auto& t : tiers_) total += t->used();
  return total;
}

std::uint64_t BufferManager::capacity() const {
  std::uint64_t total = 0;
  for (const auto& t : tiers_) total += t->capacity();
  return total;
}

StatusOr<std::size_t> BufferManager::PutScored(const BlobId& id,
                                               std::vector<std::uint8_t> data,
                                               float score, BlobStamp stamp,
                                               sim::SimTime now,
                                               sim::SimTime* done) {
  MutexLock lock(mu_);
  auto result = PutScoredLocked(id, std::move(data), score, stamp, now, done);
  std::vector<PendingFailure> failures = CollectFailuresLocked();
  lock.Unlock();
  NotifyFailures(std::move(failures), now);
  return result;
}

StatusOr<std::size_t> BufferManager::PutScoredLocked(
    const BlobId& id, std::vector<std::uint8_t> data, float score,
    BlobStamp stamp, sim::SimTime now, sim::SimTime* done) {
  {
    // Drop any stale copy so capacity accounting stays exact.
    for (auto& t : tiers_) {
      if (t->Contains(id)) {
        // Erase cannot fail here: Contains and Erase are under one mu_
        // critical section, so the blob cannot vanish in between.
        (void)t->Erase(id);
        break;
      }
    }
    scores_[id] = score;
    std::uint64_t size = data.size();
    bool any_live = false;
    for (std::size_t t = 0; t < tiers_.size(); ++t) {
      if (tiers_[t]->failed()) continue;
      any_live = true;
      if (tiers_[t]->free_bytes() < size &&
          !MakeRoom(t, size, score, /*allow_ties=*/false, now, done)) {
        continue;  // this tier is pinned full of higher-priority data
      }
      Status st = RunWithRetry(retry_, now, done,
                               [&](double start, double* attempt_done) {
                                 return tiers_[t]->Put(id, std::move(data),
                                                       stamp, start,
                                                       attempt_done);
                               });
      if (st.ok()) return t;
      // kUnavailable (tier died mid-put), kResourceExhausted, or kIoError
      // (retries exhausted): the data is still intact — try the next tier
      // down the hierarchy.
    }
    scores_.erase(id);
    // Re-check after the puts: a tier that looked live above may have been
    // discovered dead by its own Put (the injector flips it on first use).
    any_live = std::any_of(tiers_.begin(), tiers_.end(),
                           [](const auto& t) { return !t->failed(); });
    if (!any_live) {
      return Unavailable("no live scache tier on this node for blob " +
                         id.ToString());
    }
    return ResourceExhausted("scache full on this node for blob " +
                             id.ToString());
  }
}

StatusOr<BlobStamp> BufferManager::PutPartial(
    const BlobId& id, std::uint64_t offset,
    const std::vector<std::uint8_t>& data, sim::SimTime now,
    sim::SimTime* done) {
  MutexLock lock(mu_);
  auto result = PutPartialLocked(id, offset, data, now, done);
  std::vector<PendingFailure> failures = CollectFailuresLocked();
  lock.Unlock();
  NotifyFailures(std::move(failures), now);
  return result;
}

StatusOr<BlobStamp> BufferManager::PutPartialLocked(
    const BlobId& id, std::uint64_t offset,
    const std::vector<std::uint8_t>& data, sim::SimTime now,
    sim::SimTime* done) {
  for (auto& t : tiers_) {
    if (t->failed()) continue;
    if (t->Contains(id)) {
      return RunWithRetry(retry_, now, done,
                          [&](double start, double* attempt_done) {
                            return t->PutPartial(id, offset, data, start,
                                                 attempt_done);
                          });
    }
  }
  return NotFound("blob " + id.ToString() + " not resident");
}

StatusOr<std::vector<std::uint8_t>> BufferManager::Get(const BlobId& id,
                                                       sim::SimTime now,
                                                       sim::SimTime* done) {
  MutexLock lock(mu_);
  auto result = GetLocked(id, now, done);
  std::vector<PendingFailure> failures = CollectFailuresLocked();
  lock.Unlock();
  NotifyFailures(std::move(failures), now);
  return result;
}

StatusOr<std::vector<std::uint8_t>> BufferManager::GetLocked(
    const BlobId& id, sim::SimTime now, sim::SimTime* done) {
  for (auto& t : tiers_) {
    if (t->failed()) continue;
    if (t->Contains(id)) {
      return RunWithRetry(retry_, now, done,
                          [&](double start, double* attempt_done) {
                            return t->Get(id, start, attempt_done);
                          });
    }
  }
  return NotFound("blob " + id.ToString() + " not resident");
}

StatusOr<BlobStamp> BufferManager::GetInto(const BlobId& id,
                                           std::vector<std::uint8_t>* out,
                                           sim::SimTime now,
                                           sim::SimTime* done) {
  MutexLock lock(mu_);
  auto result = GetIntoLocked(id, out, now, done);
  std::vector<PendingFailure> failures = CollectFailuresLocked();
  lock.Unlock();
  NotifyFailures(std::move(failures), now);
  return result;
}

StatusOr<BlobStamp> BufferManager::GetIntoLocked(
    const BlobId& id, std::vector<std::uint8_t>* out, sim::SimTime now,
    sim::SimTime* done) {
  for (auto& t : tiers_) {
    if (t->failed()) continue;
    if (t->Contains(id)) {
      return RunWithRetry(retry_, now, done,
                          [&](double start, double* attempt_done) {
                            return t->GetInto(id, out, start, attempt_done);
                          });
    }
  }
  return NotFound("blob " + id.ToString() + " not resident");
}

StatusOr<std::vector<std::uint8_t>> BufferManager::GetPartial(
    const BlobId& id, std::uint64_t offset, std::uint64_t size,
    sim::SimTime now, sim::SimTime* done) {
  MutexLock lock(mu_);
  auto result = GetPartialLocked(id, offset, size, now, done);
  std::vector<PendingFailure> failures = CollectFailuresLocked();
  lock.Unlock();
  NotifyFailures(std::move(failures), now);
  return result;
}

StatusOr<std::vector<std::uint8_t>> BufferManager::GetPartialLocked(
    const BlobId& id, std::uint64_t offset, std::uint64_t size,
    sim::SimTime now, sim::SimTime* done) {
  for (auto& t : tiers_) {
    if (t->failed()) continue;
    if (t->Contains(id)) {
      return RunWithRetry(retry_, now, done,
                          [&](double start, double* attempt_done) {
                            return t->GetPartial(id, offset, size, start,
                                                 attempt_done);
                          });
    }
  }
  return NotFound("blob " + id.ToString() + " not resident");
}

std::optional<std::size_t> BufferManager::FindBlob(const BlobId& id) const {
  MutexLock lock(mu_);
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    if (tiers_[t]->Contains(id)) return t;
  }
  return std::nullopt;
}

Status BufferManager::Erase(const BlobId& id) {
  MutexLock lock(mu_);
  scores_.erase(id);
  for (auto& t : tiers_) {
    if (t->Contains(id)) return t->Erase(id);
  }
  return NotFound("blob " + id.ToString() + " not resident");
}

void BufferManager::SetScore(const BlobId& id, float score) {
  MutexLock lock(mu_);
  scores_[id] = score;
}

float BufferManager::GetScore(const BlobId& id) const {
  MutexLock lock(mu_);
  auto it = scores_.find(id);
  return it == scores_.end() ? 0.0f : it->second;
}

Status BufferManager::Move(const BlobId& id, std::size_t from, std::size_t to,
                           sim::SimTime now, sim::SimTime* done) {
  sim::SimTime read_done = now;
  std::vector<std::uint8_t> data;
  auto stamp = RunWithRetry(retry_, now, &read_done,
                            [&](double start, double* attempt_done) {
                              return tiers_[from]->GetInto(id, &data, start,
                                                           attempt_done);
                            });
  MM_RETURN_IF_ERROR(stamp.status());
  MM_RETURN_IF_ERROR(RunWithRetry(
      retry_, read_done, done, [&](double start, double* attempt_done) {
        return tiers_[to]->Put(id, std::move(data), *stamp, start,
                               attempt_done);
      }));
  MergeDone(read_done, done);
  return tiers_[from]->Erase(id);
}

bool BufferManager::MakeRoom(std::size_t t, std::uint64_t needed,
                             float incoming_score, bool allow_ties,
                             sim::SimTime now, sim::SimTime* done) {
  if (tiers_[t]->capacity() < needed) return false;  // 0 once failed
  if (t + 1 >= tiers_.size()) {
    // Lowest tier: nothing to demote into. Room only if eviction targets
    // exist is a caller concern (stage-out); report failure here.
    return tiers_[t]->free_bytes() >= needed;
  }
  // Candidate victims: resident blobs scoring below the incoming page,
  // lowest score first.
  std::vector<std::pair<float, BlobId>> victims;
  for (const BlobId& id : tiers_[t]->ListBlobs()) {
    auto it = scores_.find(id);
    float s = it == scores_.end() ? 0.0f : it->second;
    if (s < incoming_score || (allow_ties && s <= incoming_score)) {
      victims.emplace_back(s, id);
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [score, id] : victims) {
    if (tiers_[t]->free_bytes() >= needed) break;
    std::uint64_t size = tiers_[t]->BlobSize(id);
    // Ensure the next tier can take it (recursively making room there).
    if (tiers_[t + 1]->free_bytes() < size &&
        !MakeRoom(t + 1, size, score, /*allow_ties=*/true, now, done)) {
      continue;
    }
    if (!Move(id, t, t + 1, now, done).ok()) continue;
    demotions_->Inc();
  }
  return tiers_[t]->free_bytes() >= needed;
}

int BufferManager::Rebalance(sim::SimTime now, sim::SimTime* done) {
  MutexLock lock(mu_);
  int moved = 0;
  // Promote pass: walk slower tiers and pull the highest-scoring blobs into
  // any free space above them.
  for (std::size_t t = tiers_.size(); t-- > 1;) {
    if (tiers_[t]->failed()) continue;
    std::vector<std::pair<float, BlobId>> candidates;
    for (const BlobId& id : tiers_[t]->ListBlobs()) {
      auto it = scores_.find(id);
      float s = it == scores_.end() ? 0.0f : it->second;
      if (s > 0.0f) candidates.emplace_back(s, id);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [score, id] : candidates) {
      std::uint64_t size = tiers_[t]->BlobSize(id);
      // Find the fastest live tier with room.
      for (std::size_t up = 0; up < t; ++up) {
        if (!tiers_[up]->failed() && tiers_[up]->free_bytes() >= size) {
          if (Move(id, t, up, now, done).ok()) ++moved;
          break;
        }
      }
    }
  }
  std::vector<PendingFailure> failures = CollectFailuresLocked();
  lock.Unlock();
  NotifyFailures(std::move(failures), now);
  return moved;
}

double BufferManager::EstimateReadSeconds(const BlobId& id,
                                          std::uint64_t bytes) const {
  MutexLock lock(mu_);
  const TierStore* slowest_live = nullptr;
  for (const auto& t : tiers_) {
    if (t->failed()) continue;
    if (t->Contains(id)) return t->device().ReadDuration(bytes);
    slowest_live = t.get();
  }
  if (slowest_live != nullptr) {
    return slowest_live->device().ReadDuration(bytes);
  }
  return tiers_.back()->device().ReadDuration(bytes);
}

std::vector<BufferManager::PendingFailure>
BufferManager::CollectFailuresLocked() {
  std::vector<PendingFailure> out;
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    if (tiers_[t]->failed() && !tier_drained_[t]) {
      tier_drained_[t] = true;
      PendingFailure failure{tiers_[t]->kind(), tiers_[t]->FailAndDrain()};
      for (const BlobId& id : failure.lost) scores_.erase(id);
      out.push_back(std::move(failure));
    }
  }
  return out;
}

void BufferManager::NotifyFailures(std::vector<PendingFailure> failures,
                                   sim::SimTime now) {
  if (failures.empty()) return;
  TierFailureHandler handler;
  {
    MutexLock lock(mu_);
    handler = failure_handler_;
  }
  if (!handler) return;
  for (const PendingFailure& failure : failures) {
    handler(failure.kind, failure.lost, now);
  }
}

}  // namespace mm::storage
