// Blob identity and descriptors. A blob is one page of one MegaMmap vector
// as stored in the shared cache (scache). Blob ids are deterministic
// functions of the vector key and page index so every node computes the same
// home node without communication.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "mm/sim/device.h"
#include "mm/util/hash.h"

namespace mm::storage {

struct BlobId {
  std::uint64_t vector_id = 0;  // Fnv1a64 of the vector key
  std::uint64_t page_idx = 0;

  bool operator==(const BlobId&) const = default;

  /// Stable 64-bit digest used for home-node hashing.
  std::uint64_t Digest() const {
    return HashCombine(MixU64(vector_id), page_idx);
  }

  std::string ToString() const {
    return std::to_string(vector_id) + "/" + std::to_string(page_idx);
  }
};

struct BlobIdHash {
  std::size_t operator()(const BlobId& id) const {
    return static_cast<std::size_t>(id.Digest());
  }
};

/// The commit stamp of one scache copy: the write version its bytes were
/// committed under and their CRC-32. A copy's bytes and stamp change
/// together under its tier's lock, so a reader checks the bytes it copied
/// against the stamp they were copied with (DESIGN.md §6). A crc of 0 is
/// "not computed": it skips a check, never fails one.
struct BlobStamp {
  std::uint64_t version = 0;
  std::uint32_t crc = 0;

  bool operator==(const BlobStamp&) const = default;
};

/// Where a blob currently lives and how it is scored.
struct BlobLocation {
  std::size_t node = 0;
  sim::TierKind tier = sim::TierKind::kDram;
  std::uint64_t size = 0;
  /// Prefetcher importance score in [0, 1] (paper §III-D). Higher scores
  /// are kept in faster tiers.
  float score = 0.0f;
  /// Node that most recently set the score (locality hint).
  std::size_t score_node = 0;
  /// True when the blob has modifications not yet staged to the backend.
  bool dirty = false;
  /// Monotonic write version. Bumped by every committed modification;
  /// pcache frames remember the version they loaded so TxBegin can drop
  /// stale cached pages (acquire semantics at transaction boundaries).
  std::uint64_t version = 0;
  /// CRC-32 of the page bytes as of `version`. 0 means "not yet computed"
  /// (a valid page whose content happens to CRC to 0 is re-verified as a
  /// match, so the sentinel only ever skips a check, never fails one).
  /// For a resident page this mirrors the scache copy's BlobStamp; it is
  /// the check for backend-resident pages, stage-in and manifests.
  std::uint32_t crc = 0;
};

}  // namespace mm::storage
