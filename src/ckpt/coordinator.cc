#include "mm/ckpt/coordinator.h"

#include <filesystem>

#include "mm/ckpt/manifest.h"
#include "mm/storage/stager.h"
#include "mm/util/logging.h"

namespace mm::ckpt {

Status ReapplyRecord(const JournalRecord& rec) {
  MM_ASSIGN_OR_RETURN(auto resolved,
                      storage::StagerRegistry::Default().Resolve(rec.key));
  auto [stager, uri] = resolved;
  if (!stager->Exists(uri)) {
    // The backing object vanished (e.g. created but never sized before a
    // crash): re-create the extent the record addresses.
    MM_RETURN_IF_ERROR(stager->Create(uri, rec.offset + rec.payload.size()));
  }
  return stager->Write(uri, rec.offset, rec.payload.data(),
                       rec.payload.size());
}

Coordinator::Coordinator(CkptOptions options, std::size_t num_nodes)
    : options_(std::move(options)) {
  if (!enabled()) return;
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  journals_.reserve(num_nodes);
  for (std::size_t node = 0; node < num_nodes; ++node) {
    std::string path =
        (std::filesystem::path(options_.dir) /
         ("journal." + std::to_string(node) + ".mmj"))
            .string();
    journals_.push_back(std::make_unique<Journal>(std::move(path)));
  }
  // Seed the epoch counter past every manifest already on disk so a
  // restarted service keeps epochs monotonic.
  std::uint64_t max_epoch = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    if (entry.path().extension() != ".mmck") continue;
    auto m = ReadManifest(entry.path().string());
    if (m.ok() && m->epoch > max_epoch) max_epoch = m->epoch;
  }
  epoch_.store(max_epoch, std::memory_order_relaxed);
}

std::string Coordinator::ManifestPathFor(const std::string& tag) const {
  return ManifestPath(options_.dir, tag);
}

Status Coordinator::RecoverOnStartup(std::uint64_t* applied,
                                     std::uint64_t* torn) {
  if (applied != nullptr) *applied = 0;
  if (torn != nullptr) *torn = 0;
  if (!enabled()) return Status::Ok();
  Status first_error = Status::Ok();
  for (auto& journal : journals_) {
    std::uint64_t journal_applied = 0, journal_torn = 0;
    Status st = journal->Replay(
        [&](const JournalRecord& rec) {
          MM_RETURN_IF_ERROR(ReapplyRecord(rec));
          MutexLock lock(mu_);
          DurableState& state = replayed_[rec.id];
          if (rec.version >= state.version) {
            state.version = rec.version;
            state.page_crc = rec.page_crc;
          }
          return Status::Ok();
        },
        &journal_applied, &journal_torn);
    if (!st.ok()) {
      MM_WARN("ckpt") << "journal replay failed for " << journal->path()
                      << ": " << st.message();
      if (first_error.ok()) first_error = st;
    }
    if (applied != nullptr) *applied += journal_applied;
    if (torn != nullptr) *torn += journal_torn;
    if (journal_torn > 0) {
      MM_WARN("ckpt") << "discarded " << journal_torn
                      << " torn journal record(s) in " << journal->path();
    }
    // Applied records stay indexed (and in replayed_) for Restore overlay
    // and tier-death recovery; only the torn tail is dropped here.
  }
  return first_error;
}

StatusOr<Coordinator::DurableState> Coordinator::LatestDurable(
    const storage::BlobId& id) const {
  DurableState best;
  bool found = false;
  {
    MutexLock lock(mu_);
    auto it = replayed_.find(id);
    if (it != replayed_.end()) {
      best = it->second;
      found = true;
    }
  }
  for (const auto& journal : journals_) {
    auto rec = journal->Latest(id);
    if (rec.ok() && (!found || rec->version >= best.version)) {
      best.version = rec->version;
      best.page_crc = rec->page_crc;
      found = true;
    }
  }
  if (!found) return NotFound("no durable record for " + id.ToString());
  return best;
}

Status Coordinator::TruncateJournals() {
  Status first_error = Status::Ok();
  for (auto& journal : journals_) {
    Status st = journal->Truncate();
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  MutexLock lock(mu_);
  replayed_.clear();
  return first_error;
}

void Coordinator::PublishResult(const Status& status,
                                const CheckpointStats& stats) {
  MutexLock lock(mu_);
  last_status_ = status;
  last_stats_ = stats;
}

Status Coordinator::last_status() const {
  MutexLock lock(mu_);
  return last_status_;
}

CheckpointStats Coordinator::last_stats() const {
  MutexLock lock(mu_);
  return last_stats_;
}

}  // namespace mm::ckpt
