// Per-service checkpoint state: the per-node redo journals, the epoch
// counter, startup recovery, and the leader-to-followers result channel of
// a collective checkpoint (DESIGN.md §12).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mm/ckpt/journal.h"
#include "mm/ckpt/options.h"
#include "mm/storage/blob.h"
#include "mm/util/mutex.h"
#include "mm/util/status.h"

namespace mm::ckpt {

/// Outcome of one Service::Checkpoint, reported to benches/telemetry.
struct CheckpointStats {
  std::uint64_t epoch = 0;
  std::string tag;
  std::string manifest_path;
  /// Pages with a directory entry at the epoch (manifest page table size).
  std::uint64_t pages_total = 0;
  /// Pages flushed by this checkpoint (dirty since the previous epoch).
  std::uint64_t pages_written = 0;
  std::uint64_t bytes_written = 0;
  /// pages_written / max(1, pages_total): the incremental savings.
  double incremental_ratio = 0.0;
  /// Virtual seconds from quiesce start to manifest publication.
  double duration_s = 0.0;
};

/// Idempotent redo of one journal record: resolves its key, creates the
/// backing object when it is missing (sized to the extent the record
/// addresses), and writes the payload at its offset. Whatever part of the
/// in-place write landed before, the object then holds the record's bytes.
/// Startup recovery and the loss rule's heal (Service::DropCopy) both
/// re-apply through it.
Status ReapplyRecord(const JournalRecord& rec);

/// Owns the ckpt-subsystem state of one Service. Thread-safe.
class Coordinator {
 public:
  /// Highest durable flushed state known for a page beyond the manifests:
  /// Restore overlays manifest entries that a redo record supersedes.
  struct DurableState {
    std::uint64_t version = 0;
    std::uint32_t page_crc = 0;
  };

  Coordinator(CkptOptions options, std::size_t num_nodes);

  /// Whether flushes append redo records before writing in place and
  /// Checkpoint/Restore work.
  bool enabled() const { return options_.enabled(); }
  const CkptOptions& options() const { return options_; }

  /// Node-local redo journal; nullptr when the subsystem is disabled.
  Journal* journal(std::size_t node) {
    return node < journals_.size() ? journals_[node].get() : nullptr;
  }

  std::string ManifestPathFor(const std::string& tag) const;

  /// Epoch for the next checkpoint (monotonic; seeded past every manifest
  /// already in the checkpoint directory).
  std::uint64_t NextEpoch() {
    return epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Startup recovery: re-applies every intact journal record to its
  /// backing object (idempotent redo — heals torn or skipped in-place
  /// writes), remembers the applied (version, CRC) per page so a later
  /// Restore can overlay manifests, and trims torn tails. Counts land in
  /// `applied` / `torn` when non-null.
  Status RecoverOnStartup(std::uint64_t* applied = nullptr,
                          std::uint64_t* torn = nullptr);

  /// Durable flushed state ahead of any manifest, from startup-replayed
  /// records and the live journals. NotFound when no record supersedes.
  StatusOr<DurableState> LatestDurable(const storage::BlobId& id) const;

  /// Drops every journal record and the replayed-state overlay (a published
  /// manifest or completed restore now covers them).
  Status TruncateJournals();

  /// Leader rank publishes its Checkpoint outcome; follower ranks of the
  /// collective read it after the release barrier.
  void PublishResult(const Status& status, const CheckpointStats& stats);
  Status last_status() const;
  CheckpointStats last_stats() const;

 private:
  CkptOptions options_;
  std::vector<std::unique_ptr<Journal>> journals_;
  std::atomic<std::uint64_t> epoch_{0};
  // Lock order (MML101, contract edge): coordinator state is the outer
  // lock; per-rank journals lock themselves. Replay deliberately drains
  // records under Journal::mu_ and applies them with NO lock held, so the
  // edge is declared intent, not (yet) an observed nesting.
  mutable Mutex mu_ MM_ACQUIRED_BEFORE(Journal::mu_);
  std::unordered_map<storage::BlobId, DurableState, storage::BlobIdHash>
      replayed_ MM_GUARDED_BY(mu_);
  Status last_status_ MM_GUARDED_BY(mu_) = Status::Ok();
  CheckpointStats last_stats_ MM_GUARDED_BY(mu_);
};

}  // namespace mm::ckpt
