// Per-node redo journal for crash-consistent stager writeback (DESIGN.md
// §12, after Marathe et al., "Persistent Memory Transactions"). A flush
// group-commits one batch per owner node: every page's self-describing redo
// record — page id, directory version, full-page CRC, backing key, payload —
// is appended with one open and one flush, durable *before* any in-place
// backend write of the batch. The simulated PFS is charged one write of
// Σ(payload + kRecordOverheadBytes) for the whole batch. Recovery replays
// intact batches (idempotent: the same bytes land at the same offset) and
// discards a torn tail, so a crash at any point mid-flush never leaves a
// torn page behind.
//
// On-disk record layout (host-endian, single writer per node):
//
//   [magic 'MMJ2' u32] [key_len u32] [vector_id u64] [page_idx u64]
//   [version u64] [offset u64] [payload_len u64] [page_crc u32]
//   [payload_crc u32] [batch_left u32] <key bytes> [header_crc u32]
//   <payload bytes>
//
// `page_crc` is the directory's CRC of the *full* resident page at
// `version` (what a restored directory entry must carry); `payload_crc`
// covers the possibly-trimmed payload and detects torn appends.
// `batch_left` counts the records of the same batch that follow this one
// (0 closes the batch). A batch is all-or-nothing: a crash mid-append
// leaves a prefix of the batch's bytes, and every record of an unclosed
// batch is discarded with the torn tail — none of them is replayed.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mm/storage/blob.h"
#include "mm/util/mutex.h"
#include "mm/util/status.h"

namespace mm::ckpt {

/// One redo record: enough to re-apply a flush to its backing object and to
/// rebuild the page's directory entry.
struct JournalRecord {
  storage::BlobId id;
  std::uint64_t version = 0;
  /// Byte offset of the payload within the backing object.
  std::uint64_t offset = 0;
  /// Directory CRC of the full page at `version` (restore overlay).
  std::uint32_t page_crc = 0;
  /// CRC of `payload` (stamped by Append; detects torn appends).
  std::uint32_t payload_crc = 0;
  /// Backing object key (scheme://...), resolved via StagerRegistry.
  std::string key;
  std::vector<std::uint8_t> payload;
};

/// Append-only redo journal bound to one file. Thread-safe; a fresh
/// instance over an existing file indexes its intact records (a torn tail
/// is remembered and trimmed before the next append).
class Journal {
 public:
  /// Approximate on-disk overhead of one record past its payload; used to
  /// charge simulated PFS time for the append.
  static constexpr std::uint64_t kRecordOverheadBytes = 64;

  explicit Journal(std::string path);

  /// Group commit: appends every record of `batch` in order with one open
  /// and one flush; all of them are on disk before this returns. A batch is
  /// replayed whole or not at all.
  Status AppendBatch(std::span<const JournalRecord> batch);

  /// A batch of one record.
  Status Append(const JournalRecord& rec) { return AppendBatch({&rec, 1}); }

  /// Crash simulation: appends the first half of the batch's bytes, exactly
  /// what a process killed mid-append leaves behind. Nothing of it is
  /// indexed; Replay must discard all of it.
  Status AppendTorn(std::span<const JournalRecord> batch);
  Status AppendTorn(const JournalRecord& rec) { return AppendTorn({&rec, 1}); }

  /// Latest intact record for a page, payload read back from the file.
  StatusOr<JournalRecord> Latest(const storage::BlobId& id) const;

  /// Scans the file, invoking `apply` on every record of every intact batch
  /// in append order; stops at the first torn/corrupt record or unclosed
  /// batch. `applied`/`torn` (when non-null) receive the respective record
  /// counts.
  Status Replay(const std::function<Status(const JournalRecord&)>& apply,
                std::uint64_t* applied = nullptr,
                std::uint64_t* torn = nullptr) const;

  /// Drops every record (after a checkpoint folded them into a manifest).
  Status Truncate();

  std::uint64_t record_count() const;
  /// Bytes of intact records on disk (excludes a torn tail).
  std::uint64_t size_bytes() const;
  const std::string& path() const { return path_; }

 private:
  struct IndexEntry {
    std::uint64_t version = 0;
    std::uint64_t offset = 0;
    std::uint32_t page_crc = 0;
    std::uint32_t payload_crc = 0;
    std::uint64_t payload_pos = 0;  // file offset of the payload bytes
    std::uint64_t payload_len = 0;
    std::string key;
  };

  struct ScannedRecord {
    storage::BlobId id;
    IndexEntry entry;
    std::vector<std::uint8_t> payload;
    std::uint32_t batch_left = 0;  // records of its batch that follow it
  };

  // Scans the file from the start, collecting every record of every closed
  // batch in append order; stops at the first torn/corrupt record or
  // unclosed batch (counted into `torn`).
  Status ScanLocked(std::vector<ScannedRecord>* out, bool want_payload,
                    std::uint64_t* torn) const MM_REQUIRES(mu_);
  Status ReindexLocked() MM_REQUIRES(mu_);
  // Trims a torn tail so the next append lands after the last intact record.
  Status TrimLocked() MM_REQUIRES(mu_);
  Status AppendImpl(std::span<const JournalRecord> batch, bool torn);

  std::string path_;
  mutable Mutex mu_;
  std::unordered_map<storage::BlobId, IndexEntry, storage::BlobIdHash> index_
      MM_GUARDED_BY(mu_);
  std::uint64_t good_size_ MM_GUARDED_BY(mu_) = 0;
  std::uint64_t record_count_ MM_GUARDED_BY(mu_) = 0;
};

}  // namespace mm::ckpt
